//! gemmlowp-style matrix packing and unpacking (paper §5.3).
//!
//! gemmlowp executes its inner GEMM kernel on small fixed-size chunks. To
//! make the chunks cache-friendly it *packs* them: the LHS is reordered
//! into row blocks, the RHS into column blocks, and the result is
//! *unpacked* back to row-major order. The RHS is re-packed once per LHS
//! row-block pass, which is why packing's traffic — and its share of
//! system energy (up to 40%, Figure 6) — far exceeds one pass over the
//! matrices.

use pim_core::{Kernel, OpMix, SimContext, Tracked};

use crate::matrix::Matrix;

/// Block edge of the packed layout (gemmlowp kernels use 4–12; 4 matches
/// the paper's 4-wide SIMD).
pub const PACK_BLOCK: usize = 4;

/// Pack the LHS into row blocks of [`PACK_BLOCK`] rows: block-major, then
/// column-major within the block, so the kernel streams it linearly.
///
/// Rows are zero-padded up to a multiple of the block size.
pub fn pack_lhs(m: &Matrix<u8>) -> Vec<u8> {
    let (rows, cols) = (m.rows(), m.cols());
    let blocks = rows.div_ceil(PACK_BLOCK);
    let mut out = vec![0u8; blocks * PACK_BLOCK * cols];
    let data = m.data();
    let mut w = 0;
    for b in 0..blocks {
        let r0 = b * PACK_BLOCK;
        let live = (rows - r0).min(PACK_BLOCK);
        for c in 0..cols {
            for r in 0..live {
                out[w + r] = data[(r0 + r) * cols + c];
            }
            // Padding rows stay at the buffer's zero initialization.
            w += PACK_BLOCK;
        }
    }
    out
}

/// Pack the RHS into column blocks of [`PACK_BLOCK`] columns.
///
/// Columns are zero-padded up to a multiple of the block size.
pub fn pack_rhs(m: &Matrix<u8>) -> Vec<u8> {
    let (rows, cols) = (m.rows(), m.cols());
    let blocks = cols.div_ceil(PACK_BLOCK);
    let mut out = vec![0u8; blocks * PACK_BLOCK * rows];
    let mut w = 0;
    for b in 0..blocks {
        let c0 = b * PACK_BLOCK;
        let live = (cols - c0).min(PACK_BLOCK);
        for r in 0..rows {
            // The block's columns are contiguous within the source row.
            out[w..w + live].copy_from_slice(&m.row(r)[c0..c0 + live]);
            w += PACK_BLOCK;
        }
    }
    out
}

/// Unpack a block-ordered result back to a row-major matrix.
///
/// `packed` holds `PACK_BLOCK`×`PACK_BLOCK` result tiles in row-block,
/// column-block order, exactly as the GEMM kernel produces them.
pub fn unpack_result(packed: &[i32], rows: usize, cols: usize) -> Matrix<i32> {
    let row_blocks = rows.div_ceil(PACK_BLOCK);
    let col_blocks = cols.div_ceil(PACK_BLOCK);
    assert_eq!(
        packed.len(),
        row_blocks * col_blocks * PACK_BLOCK * PACK_BLOCK,
        "packed result size mismatch"
    );
    let mut m = Matrix::zeroed(rows, cols);
    let data = m.data_mut();
    let mut rdr = 0;
    for rb in 0..row_blocks {
        for cb in 0..col_blocks {
            let c0 = cb * PACK_BLOCK;
            let live = (cols.saturating_sub(c0)).min(PACK_BLOCK);
            for r in 0..PACK_BLOCK {
                let rr = rb * PACK_BLOCK + r;
                if rr < rows && live > 0 {
                    // A tile row is contiguous in both the tile and the
                    // destination row.
                    let dst = rr * cols + c0;
                    data[dst..dst + live].copy_from_slice(&packed[rdr..rdr + live]);
                }
                rdr += PACK_BLOCK;
            }
        }
    }
    m
}

/// Traffic/op model of packing for one GEMM of shape `m x k x n`:
/// one pass over the LHS, `ceil(m / row_block)` passes over the RHS (the
/// gemmlowp re-pack), plus the unpack pass over the 32-bit result.
///
/// `row_block` is the LHS rows that fit the L2 working set per pass
/// (gemmlowp's cache-blocking parameter; 64 is representative).
pub fn pack_tracked(ctx: &mut SimContext, m: usize, k: usize, n: usize, row_block: usize) {
    let lhs: Tracked<u8> = Tracked::zeroed(ctx, m * k);
    let lhs_packed: Tracked<u8> = Tracked::zeroed(ctx, m * k);
    let rhs: Tracked<u8> = Tracked::zeroed(ctx, k * n);
    let rhs_packed: Tracked<u8> = Tracked::zeroed(ctx, k * n);

    // LHS: one reordering pass.
    lhs.touch_range(ctx, 0, m * k, pim_core::AccessKind::Read);
    lhs_packed.touch_range(ctx, 0, m * k, pim_core::AccessKind::Write);
    ctx.ops(OpMix { scalar: (m * k / 8) as u64, simd: (m * k / 16) as u64, ..OpMix::default() });

    // RHS: re-packed once per row-block pass.
    let passes = m.div_ceil(row_block.max(1));
    for _ in 0..passes {
        rhs.touch_range(ctx, 0, k * n, pim_core::AccessKind::Read);
        rhs_packed.touch_range(ctx, 0, k * n, pim_core::AccessKind::Write);
        ctx.ops(OpMix { scalar: (k * n / 8) as u64, simd: (k * n / 16) as u64, ..OpMix::default() });
    }
}

/// Traffic/op model of unpacking the 32-bit result (one reordering pass).
pub fn unpack_tracked(ctx: &mut SimContext, m: usize, n: usize) {
    let packed: Tracked<i32> = Tracked::zeroed(ctx, m * n);
    let out: Tracked<i32> = Tracked::zeroed(ctx, m * n);
    packed.touch_range(ctx, 0, m * n, pim_core::AccessKind::Read);
    out.touch_range(ctx, 0, m * n, pim_core::AccessKind::Write);
    ctx.ops(OpMix { scalar: (m * n / 8) as u64, simd: (m * n / 16) as u64, ..OpMix::default() });
}

/// The §9 packing microbenchmark: gemmlowp with multiplication and
/// unpacking disabled — packing alone, over representative GEMM shapes.
#[derive(Debug)]
pub struct PackingKernel {
    shapes: Vec<(usize, usize, usize)>,
}

impl PackingKernel {
    /// Pack matrices for the given `(m, k, n)` GEMM shapes.
    pub fn new(shapes: Vec<(usize, usize, usize)>) -> Self {
        Self { shapes }
    }

    /// Representative convolution GEMM shapes (§9).
    pub fn paper_input() -> Self {
        Self::new(vec![(784, 288, 64), (784, 576, 128), (196, 1152, 256), (196, 2304, 512)])
    }
}

impl Kernel for PackingKernel {
    fn name(&self) -> &'static str {
        "packing"
    }

    fn working_set_bytes(&self) -> u64 {
        self.shapes.iter().map(|&(m, k, n)| (m * k + k * n) as u64).sum()
    }

    fn run(&mut self, ctx: &mut SimContext) {
        let shapes = self.shapes.clone();
        ctx.scoped("packing", |ctx| {
            for (m, k, n) in shapes {
                if ctx.tracer().events_enabled() {
                    ctx.mark(format!("pack {m}x{k}x{n}"));
                }
                pack_tracked(ctx, m, k, n, 128);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_lhs_is_block_column_major() {
        // 2x3 matrix, block 4: one padded block.
        let m = Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let p = pack_lhs(&m);
        // Column-major within the block, rows padded to 4.
        assert_eq!(p, vec![1, 4, 0, 0, 2, 5, 0, 0, 3, 6, 0, 0]);
    }

    #[test]
    fn pack_rhs_is_block_row_major() {
        let m = Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let p = pack_rhs(&m);
        // One column block of width 4 (padded), row-major within.
        assert_eq!(p, vec![1, 2, 3, 0, 4, 5, 6, 0]);
    }

    #[test]
    fn unpack_restores_row_major_order() {
        // One 4x4 tile holding 0..16 for a 3x2 result.
        let tile: Vec<i32> = (0..16).collect();
        let m = unpack_result(&tile, 3, 2);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 0), 4);
        assert_eq!(m.get(2, 1), 9);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn unpack_checks_size() {
        unpack_result(&[0; 15], 4, 4);
    }

    #[test]
    fn repacking_traffic_scales_with_row_blocks() {
        use pim_core::{Platform, SimContext};
        let mut a = SimContext::cpu_only(Platform::baseline());
        pack_tracked(&mut a, 128, 256, 256, 128); // 1 pass
        let mut b = SimContext::cpu_only(Platform::baseline());
        pack_tracked(&mut b, 512, 256, 256, 128); // 4 passes
        let ta = a.total_activity().l1_accesses;
        let tb = b.total_activity().l1_accesses;
        assert!(tb as f64 > 2.5 * ta as f64, "{tb} vs {ta}");
    }

    #[test]
    fn kernel_passes_identification_criteria() {
        use pim_core::{ExecutionMode, OffloadEngine};
        let eng = OffloadEngine::new();
        let mut k = PackingKernel::paper_input();
        let cpu = eng.run(&mut k, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut k, ExecutionMode::PimCore);
        assert!(cpu.mpki > 10.0);
        assert!(cpu.energy.data_movement_fraction() > 0.7, "packing is DM-bound");
        assert!(pim.energy_vs(&cpu) < 0.7);
        assert!(pim.speedup_vs(&cpu) > 1.0);
    }
}
