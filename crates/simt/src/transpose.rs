//! Buffer transpose: the data-layout transformation at the heart of
//! Rhythm's memory-coalescing strategy (paper §4.3.2).
//!
//! Cohort buffers are logically 2-D: `rows` request streams of `cols`
//! bytes. Row-major layout keeps each request contiguous (what the NIC
//! wants); column-major ("transposed") layout interleaves lanes so warp
//! accesses coalesce (what the GPU wants). This module provides
//!
//! * host-side layout conversions ([`transpose_row_to_col`] /
//!   [`transpose_col_to_row`]) used by the pipeline and by tests, and
//! * [`build_transpose_kernel`], a tiled shared-memory IR kernel
//!   (32×32-byte tiles, coalesced reads *and* writes) whose measured cost
//!   models the on-device response transpose of the paper's Titan B.

use crate::ir::{BinOp, MemSpace, Program, ProgramBuilder, Width};

/// Tile edge for the kernel transpose; one warp owns one tile.
pub const TILE: u32 = 32;

/// Convert a `rows × cols` row-major byte matrix into column-major.
///
/// `src.len()` and `dst.len()` must both be `rows * cols`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `rows * cols`.
pub fn transpose_row_to_col(src: &[u8], dst: &mut [u8], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src size");
    assert_eq!(dst.len(), rows * cols, "dst size");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Convert a `rows × cols` column-major byte matrix back to row-major.
///
/// # Panics
///
/// Panics if the slice lengths do not match `rows * cols`.
pub fn transpose_col_to_row(src: &[u8], dst: &mut [u8], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src size");
    assert_eq!(dst.len(), rows * cols, "dst size");
    for r in 0..rows {
        for c in 0..cols {
            dst[r * cols + c] = src[c * rows + r];
        }
    }
}

/// Build the tiled transpose kernel.
///
/// Launch with `lanes = (rows / 32) * (cols / 32) * 32` (one warp per
/// 32×32 tile) and params `[src_base, dst_base, rows, cols]`. Requires
/// `rows` and `cols` to be multiples of [`TILE`] — cohort sizes and padded
/// response sizes in Rhythm are powers of two, which is exactly why the
/// paper rounds response buffers up to powers of two.
///
/// Semantics: `dst` (a `cols × rows` row-major matrix, i.e. the transposed
/// view) receives `src` (a `rows × cols` row-major matrix):
/// `dst[c * rows + r] = src[r * cols + c]`.
///
/// Shared memory requirement: `TILE * TILE` bytes per warp.
pub fn build_transpose_kernel() -> Program {
    let mut b = ProgramBuilder::new("transpose32");
    let src = b.param(0);
    let dst = b.param(1);
    let rows = b.param(2);
    let cols = b.param(3);
    let lane = b.lane_id();
    let gid = b.global_id();
    let tile_c = b.imm(TILE);

    // warp id = gid / 32; tiles per row-strip = cols / 32
    let wid = b.bin(BinOp::DivU, gid, tile_c);
    let tiles_x = b.bin(BinOp::DivU, cols, tile_c);
    let tile_i = b.bin(BinOp::DivU, wid, tiles_x); // tile row index
    let tile_j = b.bin(BinOp::RemU, wid, tiles_x); // tile col index
    let i0 = b.bin(BinOp::Mul, tile_i, tile_c); // first row of tile
    let j0 = b.bin(BinOp::Mul, tile_j, tile_c); // first col of tile

    // Phase 1: shared[r][lane] = src[(i0+r)*cols + j0+lane] (coalesced
    // reads: fixed row, consecutive columns across lanes).
    let col = b.bin(BinOp::Add, j0, lane);
    b.for_loop(tile_c, |b, r| {
        let row = b.bin(BinOp::Add, i0, r);
        let row_off = b.bin(BinOp::Mul, row, cols);
        let a = b.bin(BinOp::Add, row_off, col);
        let sa = b.bin(BinOp::Add, src, a);
        let v = b.ld(Width::Byte, MemSpace::Global, sa, 0);
        // shared index r*32 + lane
        let sh_row = b.bin(BinOp::Mul, r, tile_c);
        let sh = b.bin(BinOp::Add, sh_row, lane);
        b.st(Width::Byte, MemSpace::Shared, sh, 0, v);
    });

    // Phase 2: dst[(j0+r)*rows + i0+lane] = shared[lane][r] (coalesced
    // writes: consecutive lanes hit consecutive addresses).
    let out_row_base = b.bin(BinOp::Add, i0, lane);
    b.for_loop(tile_c, |b, r| {
        let sh_row = b.bin(BinOp::Mul, lane, tile_c);
        let sh = b.bin(BinOp::Add, sh_row, r);
        let v = b.ld(Width::Byte, MemSpace::Shared, sh, 0);
        let c = b.bin(BinOp::Add, j0, r);
        let c_off = b.bin(BinOp::Mul, c, rows);
        let a = b.bin(BinOp::Add, c_off, out_row_base);
        let da = b.bin(BinOp::Add, dst, a);
        b.st(Width::Byte, MemSpace::Global, da, 0, v);
    });
    b.halt();
    b.build().expect("transpose kernel is structurally valid")
}

/// Lanes needed to launch [`build_transpose_kernel`] over a matrix.
///
/// # Panics
///
/// Panics unless `rows` and `cols` are nonzero multiples of [`TILE`].
pub fn transpose_launch_lanes(rows: u32, cols: u32) -> u32 {
    assert!(
        rows > 0 && cols > 0 && rows.is_multiple_of(TILE) && cols.is_multiple_of(TILE),
        "transpose dimensions must be nonzero multiples of {TILE} (got {rows}x{cols})"
    );
    (rows / TILE) * (cols / TILE) * TILE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LaunchConfig;
    use crate::gpu::{Gpu, GpuConfig};
    use crate::mem::{ConstPool, DeviceMemory};
    use rhythm_obs::NoopRecorder;

    #[test]
    fn host_transpose_roundtrip() {
        let rows = 4;
        let cols = 6;
        let src: Vec<u8> = (0..rows * cols).map(|i| i as u8).collect();
        let mut col = vec![0u8; rows * cols];
        let mut back = vec![0u8; rows * cols];
        transpose_row_to_col(&src, &mut col, rows, cols);
        transpose_col_to_row(&col, &mut back, rows, cols);
        assert_eq!(src, back);
        assert_eq!(col[0], src[0]);
        assert_eq!(col[1], src[cols]); // col-major adjacency = same column
    }

    #[test]
    #[should_panic(expected = "src size")]
    fn host_transpose_checks_sizes() {
        let mut dst = vec![0u8; 4];
        transpose_row_to_col(&[0u8; 3], &mut dst, 2, 2);
    }

    #[test]
    fn kernel_matches_host_transpose() {
        let rows = 64u32;
        let cols = 96u32;
        let n = (rows * cols) as usize;
        let src: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();

        let mut mem = DeviceMemory::new(2 * n);
        mem.load(0, &src).unwrap();
        let kernel = build_transpose_kernel();
        let lanes = transpose_launch_lanes(rows, cols);
        let mut cfg = LaunchConfig::new(lanes, vec![0, n as u32, rows, cols]);
        cfg.shared_bytes = TILE * TILE;
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let pool = ConstPool::new();
        let res = gpu
            .launch(&kernel, &cfg, &mut mem, &pool, &NoopRecorder)
            .unwrap();

        let mut expect = vec![0u8; n];
        transpose_row_to_col(&src, &mut expect, rows as usize, cols as usize);
        assert_eq!(mem.slice(n as u32, n as u32).unwrap(), &expect[..]);

        // Tiled transpose must be well coalesced: on average well under 2
        // transactions per warp access.
        assert!(res.stats.transactions_per_access() < 2.0);
    }

    #[test]
    fn launch_lanes_arithmetic() {
        assert_eq!(transpose_launch_lanes(32, 32), 32);
        assert_eq!(transpose_launch_lanes(64, 64), 4 * 32);
        assert_eq!(transpose_launch_lanes(4096, 1024), 4096 * 32 * 4096 / 4096);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn launch_lanes_rejects_unaligned() {
        transpose_launch_lanes(33, 32);
    }
}
