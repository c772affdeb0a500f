//! A wide-copy loop header reached inside a block chain commits.
//!
//! The check reads the process-global [`wide_copy_stats`] counters, which
//! any concurrently running launch could move, so it lives alone in its
//! own integration test: integration tests get their own process.

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::ir::ProgramBuilder;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{execute_simt_legacy, wide_copy_stats};

/// A uniform branch ahead of a transposed response copy: the warp never
/// diverges, so it reaches the copy loop's header by chaining from the
/// branch block through its then side and join. The copy must commit as
/// one wide copy on every warp, with no fallback, and match the legacy
/// engine's memory and stats.
#[test]
fn wide_copy_header_reached_by_a_chain_commits() {
    let mut pool = ConstPool::new();
    let (off, len) = pool.intern_str("HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n");
    let mut b = ProgramBuilder::new("chained_copy");
    let always = b.imm(1);
    let base = b.reg();
    b.if_then(always, |b| b.imm_into(base, 0));
    let lane = b.lane_id();
    let lane_stride = b.imm(1);
    let elem_stride = b.imm(64);
    let cur = b.cursor(base, lane, lane_stride, elem_stride);
    b.write_const_str(&cur, off, len);
    b.halt();
    let p = b.build().unwrap();

    for width in [1u32, 3, 32] {
        let cfg = LaunchConfig::new(width, []);
        let mut mem_legacy = DeviceMemory::new(64 * 64);
        let legacy = execute_simt_legacy(&p, &cfg, &mut mem_legacy, &pool).unwrap();
        let before = wide_copy_stats();
        let mut mem = DeviceMemory::new(64 * 64);
        let plan = execute_simt(&p, &cfg, &mut mem, &pool, &NoopRecorder).unwrap();
        let copies = wide_copy_stats().since(&before);
        assert_eq!((copies.hits, copies.misses), (1, 0), "width {width}");
        assert_eq!(plan, legacy, "width {width}: stats");
        assert_eq!(
            mem.as_bytes(),
            mem_legacy.as_bytes(),
            "width {width}: memory"
        );
        assert_eq!(mem.read_byte(width - 1).unwrap(), u32::from(b'H'));
    }
}
