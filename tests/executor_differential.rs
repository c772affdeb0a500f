//! Three-way executor differential: the scalar reference, the legacy
//! masked SIMT engine, and the pre-decoded warp-vectorized engine must be
//! bit-identical — memory images and (for the two SIMT engines) every
//! `KernelStats` counter — on random lint-clean kernels and on the real
//! banking kernels, including wide-copy-eligible kernels and Budget-fault
//! cases, where the partial image must match too.
//!
//! This is the safety net under the interpreter fast paths: any divergence
//! between the convergent vector loops and the masked per-lane semantics,
//! any decode bug in `ExecPlan`, or any wide-copy shortcut that isn't
//! semantics-preserving, shows up here as a byte or counter mismatch.

use proptest::prelude::*;

use rhythm_banking::backend::BankStore;
use rhythm_banking::genreq::RequestGenerator;
use rhythm_banking::kernels::Workload;
use rhythm_banking::layout::{CohortLayout, REQBUF_BYTES};
use rhythm_banking::session_array::SessionArrayHost;
use rhythm_banking::types::RequestType;
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::legacy::execute_simt_legacy;
use rhythm_simt::exec::scalar::{execute_scalar, ScalarRun};
use rhythm_simt::exec::simt::{execute_simt, TX_BYTES};
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_verify::corpus::build_kernel;

proptest! {
    /// Random structured kernels: scalar lane-at-a-time execution is the
    /// semantic reference; both SIMT engines must reproduce its memory
    /// image exactly, and must agree with each other on every stats
    /// counter.
    #[test]
    fn random_kernels_three_way_identical(
        seed in any::<u32>(),
        steps in prop::collection::vec(any::<u8>(), 1..10),
        lane_sel in 0usize..6,
    ) {
        // 1 and 3 are the cohorts a served time-out launch carries, so every
        // masked loop runs at a live width below 32; 33 adds a 1-lane warp
        // after a full one; 96 = three full warps; 77 ends in a partial warp.
        let lanes = [1u32, 3, 32, 33, 77, 96][lane_sel];
        let program = build_kernel(seed, &steps);
        let mem_bytes = lanes as usize * 4;
        let pool = ConstPool::new();

        // Scalar reference.
        let mut reference = DeviceMemory::new(mem_bytes);
        let scalar_cfg = LaunchConfig::new(1, []);
        for id in 0..lanes {
            execute_scalar(&ScalarRun::new(&program, id), &scalar_cfg, &mut reference, &pool, None)
                .unwrap();
        }

        let cfg = LaunchConfig::new(lanes, []);
        let mut mem_l = DeviceMemory::new(mem_bytes);
        let sl = execute_simt_legacy(&program, &cfg, &mut mem_l, &pool).unwrap();
        let mut mem_p = DeviceMemory::new(mem_bytes);
        let sp = execute_simt(&program, &cfg, &mut mem_p, &pool, &NoopRecorder).unwrap();

        prop_assert_eq!(
            mem_l.as_bytes(), reference.as_bytes(),
            "legacy SIMT diverged from scalar"
        );
        prop_assert_eq!(
            mem_p.as_bytes(), reference.as_bytes(),
            "pre-decoded SIMT diverged from scalar"
        );
        prop_assert_eq!(&sp, &sl, "engine stats diverged");
    }
}

/// Wide-copy-eligible kernels under an instruction budget that trips
/// mid-copy: the fast path must take the byte-identical fallback, so the
/// Budget fault itself, the partial memory image, and (on success paths)
/// every counter agree with the legacy engine.
#[test]
fn wide_copy_budget_fault_differential() {
    use rhythm_simt::ir::ProgramBuilder;

    for (lane_stride, elem_stride) in [(1u32, 64u32), (64, 1)] {
        let mut pool = ConstPool::new();
        let (off, len) = pool.intern_str("HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n");
        let mut b = ProgramBuilder::new("wide_copy_budget");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(lane_stride);
        let es = b.imm(elem_stride);
        let cur = b.cursor(base, lane, ls, es);
        b.write_const_str(&cur, off, len);
        b.halt();
        let program = b.build().unwrap();

        let lanes = 90u32;
        let size = 64 * lanes as usize;
        // Budgets straddling the copy loop: far below, mid-loop, and ample.
        for max_instructions in [40u64, 150, 100_000] {
            let mut cfg = LaunchConfig::new(lanes, []);
            cfg.max_instructions = max_instructions;
            let ctx = format!("stride {lane_stride}/{elem_stride}, budget {max_instructions}");
            let mut mem_legacy = DeviceMemory::new(size);
            let legacy = execute_simt_legacy(&program, &cfg, &mut mem_legacy, &pool);
            let mut mem_plan = DeviceMemory::new(size);
            let plan = execute_simt(&program, &cfg, &mut mem_plan, &pool, &NoopRecorder);
            match (&legacy, &plan) {
                (Ok(sl), Ok(sp)) => assert_eq!(sp, sl, "stats diverged ({ctx})"),
                (Err(el), Err(ep)) => {
                    assert_eq!(format!("{el}"), format!("{ep}"), "fault diverged ({ctx})")
                }
                _ => panic!("fault disagreement ({ctx}): legacy {legacy:?} vs plan {plan:?}"),
            }
            // Both engines stop at the first faulting warp, so the image is
            // fully specified on a fault too.
            assert_eq!(
                mem_plan.as_bytes(),
                mem_legacy.as_bytes(),
                "memory diverged ({ctx})"
            );
        }
    }
}

/// A response-template kernel whose cursors have diverged, as they do
/// after any per-lane variable-length output: every lane first writes
/// `gid % 5` filler bytes, then all lanes copy the same `trip` constant
/// bytes from wherever their own cursor stands. Each warp owns a disjoint
/// `param(0)`-byte region (warps must stay independent); inside it lane
/// `l` starts at `l * param(1)` and steps by `param(2)`, so one program
/// serves every layout.
fn diverged_copy_kernel(pool: &mut ConstPool, trip: u32) -> rhythm_simt::Program {
    use rhythm_simt::ir::{BinOp, ProgramBuilder};

    // Neighbouring bytes differ, so a store landing in the wrong iteration
    // or the wrong order shows in the image.
    let text: Vec<u8> = (0..trip).map(|i| b'A' + (i % 53) as u8).collect();
    let (off, len) = pool.intern(&text);
    let mut b = ProgramBuilder::new("diverged_copy");
    let gid = b.global_id();
    let lane = b.lane_id();
    let warp_bytes = b.param(0);
    let lane_stride = b.param(1);
    let elem_stride = b.param(2);
    let warp_size = b.imm(32);
    let warp = b.bin(BinOp::DivU, gid, warp_size);
    let base = b.bin(BinOp::Mul, warp, warp_bytes);
    let cur = b.cursor(base, lane, lane_stride, elem_stride);
    let five = b.imm(5);
    let prefix = b.bin(BinOp::RemU, gid, five);
    let filler = b.imm(b'#' as u32);
    b.for_loop(prefix, |b, _| b.cursor_write_byte(&cur, filler));
    b.write_const_str(&cur, off, len);
    b.halt();
    b.build().unwrap()
}

/// Bytes one warp of [`diverged_copy_kernel`] can reach: the last lane's
/// start plus the longest prefix (4) and the copy, at `elem_stride` apart.
fn diverged_warp_bytes(lane_stride: u32, elem_stride: u32, trip: u32) -> u32 {
    31 * lane_stride + (trip + 3) * elem_stride + 1
}

/// Run `program` on the legacy and the pre-decoded engine, demanding the
/// same image and the same counters.
fn assert_plan_matches_legacy(
    program: &rhythm_simt::Program,
    cfg: &LaunchConfig,
    pool: &ConstPool,
    size: usize,
    ctx: &str,
) {
    let mut mem_legacy = DeviceMemory::new(size);
    let legacy = execute_simt_legacy(program, cfg, &mut mem_legacy, pool)
        .unwrap_or_else(|e| panic!("legacy fault ({ctx}): {e}"));
    let mut mem_plan = DeviceMemory::new(size);
    let plan = execute_simt(program, cfg, &mut mem_plan, pool, &NoopRecorder)
        .unwrap_or_else(|e| panic!("pre-decoded fault ({ctx}): {e}"));
    assert_eq!(plan, legacy, "stats diverged ({ctx})");
    assert!(
        mem_plan.as_bytes() == mem_legacy.as_bytes(),
        "memory diverged ({ctx})"
    );
}

/// Wide copies from diverged cursors, swept over everything the periodic
/// accounting depends on: element stride (zero, odd, powers of two from a
/// byte to past a transaction, huge), trip counts on both sides of the
/// period `P = TX_BYTES / gcd(es, TX_BYTES)` — a lone iteration, a partial
/// period, exact periods, periods plus a remainder — a single lane, a full
/// warp, and three warps ending in a partial mask. The strides reach every
/// period from 1 to 128. Small strides use a row-major layout whose 37-byte
/// slots the longer copies overrun, so lanes' walks also overlap.
#[test]
fn diverged_cursor_copy_differential() {
    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let commits_before = rhythm_simt::wide_copy_stats().hits;
    let mut periods = std::collections::BTreeSet::new();
    for es in [0u32, 1, 2, 3, 4, 8, 16, 32, 33, 64, 128, 4096] {
        let period = TX_BYTES / gcd(es, TX_BYTES);
        periods.insert(period);
        let mut trips = vec![1, period - 1, period, period + 1, 3 * period + 2, 1000];
        trips.retain(|&t| t > 0);
        trips.sort_unstable();
        trips.dedup();
        let ls = if es >= 32 { 1 } else { 37 };
        for trip in trips {
            let mut pool = ConstPool::new();
            let program = diverged_copy_kernel(&mut pool, trip);
            let warp_bytes = diverged_warp_bytes(ls, es, trip);
            for lanes in [1u32, 32, 77] {
                let cfg = LaunchConfig::new(lanes, [warp_bytes, ls, es]);
                let size = (cfg.warps() * warp_bytes) as usize;
                assert_plan_matches_legacy(
                    &program,
                    &cfg,
                    &pool,
                    size,
                    &format!("es {es}, trip {trip}, lanes {lanes}"),
                );
            }
        }
    }
    assert_eq!(
        periods.into_iter().collect::<Vec<_>>(),
        [1, 2, 4, 8, 16, 32, 64, 128],
        "the strides must reach every period TX_BYTES allows"
    );
    assert!(
        rhythm_simt::wide_copy_stats().hits > commits_before,
        "the sweep never took the wide-copy path"
    );
}

/// Overlapping walks: row-major 16-byte slots, a 24-byte copy. Every lane
/// overruns into its neighbour's slot, where the neighbour wrote the same
/// addresses in *earlier* iterations — so lockstep order leaves the lower
/// lane's bytes there, and a lane-at-a-time copy would leave the upper
/// lane's. The committed copy must leave what lockstep leaves.
#[test]
fn overlapping_walks_keep_lockstep_store_order() {
    let (ls, es, trip) = (16u32, 1u32, 24u32);
    let mut pool = ConstPool::new();
    let program = diverged_copy_kernel(&mut pool, trip);
    let warp_bytes = diverged_warp_bytes(ls, es, trip);
    let cfg = LaunchConfig::new(77, [warp_bytes, ls, es]);
    let size = (cfg.warps() * warp_bytes) as usize;
    assert_plan_matches_legacy(&program, &cfg, &pool, size, "overrunning row-major slots");

    // The case really is order-sensitive: lane 0 (no prefix) copies to
    // 0..24 and lane 1 (one filler byte) to 17..41. Address 20 holds lane
    // 0's byte 20, not lane 1's byte 3.
    let mut mem = DeviceMemory::new(size);
    execute_simt(&program, &cfg, &mut mem, &pool, &NoopRecorder).unwrap();
    let text = pool.as_bytes();
    assert_eq!(mem.as_bytes()[20], text[20]);
    assert_ne!(text[20], text[3]);
}

/// A diverged copy that cannot run to completion commits nothing: with a
/// budget that trips mid-copy, and with a claimed footprint that leaves
/// out the tail of one lane's walk, the loop is interpreted and stops at
/// the exact instruction, with the exact partial image, interpretation
/// gives — and both count as fallbacks.
#[test]
fn diverged_copy_faults_commit_nothing() {
    use rhythm_simt::{AccessKind, ExecError, FootprintSpec};
    use std::sync::Arc;

    // Row-major 64-byte slots, 24-byte copy: walks are disjoint and every
    // slot keeps a gap, so claimed intervals never merge across lanes.
    let (ls, es, trip, lanes) = (64u32, 1u32, 24u32, 32u32);
    let mut pool = ConstPool::new();
    let program = diverged_copy_kernel(&mut pool, trip);
    let warp_bytes = diverged_warp_bytes(ls, es, trip);
    let size = warp_bytes as usize;
    let base_cfg = LaunchConfig::new(lanes, [warp_bytes, ls, es]);
    let fallbacks_before = rhythm_simt::wide_copy_stats().misses;

    // Budget: the prefixes finish (a few dozen issues), the copy does not.
    let mut cfg = base_cfg.clone();
    cfg.max_instructions = 200;
    let mut mem_legacy = DeviceMemory::new(size);
    let legacy = execute_simt_legacy(&program, &cfg, &mut mem_legacy, &pool);
    let mut mem_plan = DeviceMemory::new(size);
    let plan = execute_simt(&program, &cfg, &mut mem_plan, &pool, &NoopRecorder);
    assert!(matches!(plan, Err(ExecError::Budget { .. })), "{plan:?}");
    assert_eq!(plan, legacy);
    assert_eq!(mem_plan.as_bytes(), mem_legacy.as_bytes());
    assert!(
        mem_plan.as_bytes().contains(&b'A'),
        "the budget should trip after the copy has begun"
    );

    // Footprint: lane 9's claim ends `cut` bytes into its copy. The first
    // escaping store is its iteration `cut`; by then every lane has stored
    // `cut` bytes — exactly the image of the same kernel copying `cut`.
    let (odd_lane, cut) = (9u32, 10u32);
    let claims: Vec<(u64, u64)> = (0..lanes)
        .map(|l| {
            let copied = if l == odd_lane { cut } else { trip };
            let lo = (l * ls) as u64;
            (lo, lo + (l % 5 + copied) as u64)
        })
        .collect();
    let mut cfg = base_cfg.clone();
    cfg.sanitize = Some(Arc::new(FootprintSpec::new(None, Some(claims), None)));
    let mut mem_plan = DeviceMemory::new(size);
    let err = execute_simt(&program, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap_err();
    assert_eq!(
        err,
        ExecError::FootprintEscape {
            kind: AccessKind::Write,
            addr: odd_lane * ls + odd_lane % 5 + cut,
            width: 1,
        }
    );
    let mut cut_pool = ConstPool::new();
    let cut_program = diverged_copy_kernel(&mut cut_pool, cut);
    let mut mem_cut = DeviceMemory::new(size);
    execute_simt_legacy(&cut_program, &base_cfg, &mut mem_cut, &cut_pool).unwrap();
    assert_eq!(mem_plan.as_bytes(), mem_cut.as_bytes());

    assert!(
        rhythm_simt::wide_copy_stats().misses >= fallbacks_before + 2,
        "both declined copies count as fallbacks"
    );
}

/// The production banking kernels, end to end: drive a full device-backend
/// cohort (parser → stages with backend rounds) through the legacy and
/// pre-decoded engines in lockstep, comparing the entire memory image and
/// the kernel stats after every single launch, for every request type, on
/// three request seeds, at three cohort widths: 1 and 3 lanes (what a
/// served time-out launch carries, so every masked loop runs at a live
/// width below 32) and 48 (one full warp + one partial warp). (The scalar
/// leg of the three-way proof for banking kernels is the existing
/// cohort-vs-native differential suite; warp reductions make a
/// lane-looped scalar run of a 48-lane cohort semantically different by
/// design.)
#[test]
fn banking_kernels_legacy_vs_predecoded_lockstep() {
    use std::collections::BTreeSet;

    const CAPACITY: u32 = 1024;
    const SALT: u32 = 0x5EED_0001;

    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let store_img = store.serialize_device();

    for (seed, cohort) in [1u64, 2, 4]
        .into_iter()
        .flat_map(|seed| [1u32, 3, 48].map(|cohort| (seed, cohort)))
    {
        let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
        let mut generator = RequestGenerator::new(128, 0xD1FF + seed);
        for ty in RequestType::ALL {
            let reqs = generator.uniform(ty, cohort as usize, &mut sessions);
            // A page with a table must leave it with diverged cursors, so
            // the static copies after it run from per-lane offsets: at 48
            // lanes each warp's members span at least two row counts.
            if cohort == 48 {
                for warp in reqs.chunks(32) {
                    let rows: BTreeSet<usize> =
                        warp.iter().filter_map(|r| r.table_rows(&store)).collect();
                    assert_ne!(rows.len(), 1, "{ty:?}: a warp with one row count");
                }
            }
            let layout = CohortLayout::new(
                cohort,
                ty.response_buffer_bytes(),
                CAPACITY,
                SALT,
                store_img.len() as u32,
                true,
            );
            let mut mem = DeviceMemory::new(layout.total_bytes as usize);
            mem.load(layout.store_base, &store_img).unwrap();
            mem.load(layout.session_base, &sessions.to_device_bytes())
                .unwrap();
            for (lane, r) in reqs.iter().enumerate() {
                layout
                    .write_lane(
                        &mut mem,
                        layout.reqbuf_base,
                        REQBUF_BYTES,
                        lane as u32,
                        &r.raw,
                    )
                    .unwrap();
            }
            let cfg = layout.launch_config();

            let mut mem_legacy = mem.clone();
            let mut mem_plan = mem;
            // The cohort runner's launch sequence in device-backend mode.
            for step in workload.cohort_steps(ty) {
                let (name, kernel) = (step.name(), step.program());
                let sl = execute_simt_legacy(kernel, &cfg, &mut mem_legacy, &workload.pool)
                    .unwrap_or_else(|e| panic!("{ty:?}/{name} legacy fault: {e}"));
                let sp = execute_simt(kernel, &cfg, &mut mem_plan, &workload.pool, &NoopRecorder)
                    .unwrap_or_else(|e| panic!("{ty:?}/{name} pre-decoded fault: {e}"));
                assert_eq!(
                    sp, sl,
                    "stats diverged on {ty:?}/{name}, seed {seed}, cohort {cohort}"
                );
                assert_eq!(
                    mem_plan.as_bytes(),
                    mem_legacy.as_bytes(),
                    "memory diverged on {ty:?}/{name}, seed {seed}, cohort {cohort}"
                );
            }

            // Keep the host session mirror in sync so later request types
            // generate against valid tokens.
            let sess_bytes = mem_plan
                .slice(
                    layout.session_base,
                    SessionArrayHost::device_bytes(CAPACITY),
                )
                .unwrap();
            sessions = SessionArrayHost::from_device_bytes(sess_bytes, SALT);
        }
    }
}
