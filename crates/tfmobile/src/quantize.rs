//! Quantization: 32-bit → 8-bit conversion around every Conv2D (paper §5.3).
//!
//! TensorFlow Mobile quantizes the input matrix before Conv2D and
//! *re-quantizes* the 32-bit result matrix after it (Figure 8). Each pass
//! scans the matrix twice — once to find min/max, once to convert — which
//! is why quantization is data-movement-bound (73.5% of its energy on
//! ResNet, §5.3).

use pim_core::{Kernel, OpMix, SimContext, Tracked};

use crate::matrix::Matrix;

/// Affine quantization parameters: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale factor.
    pub scale: f32,
    /// Zero point in quantized space.
    pub zero_point: i32,
}

impl QuantParams {
    /// Parameters mapping `[min, max]` onto `0..=255`.
    pub fn from_range(min: f32, max: f32) -> Self {
        let (min, max) = (min.min(0.0), max.max(0.0)); // range must include 0
        let scale = if max > min { (max - min) / 255.0 } else { 1.0 };
        let zero_point = (-min / scale).round().clamp(0.0, 255.0) as i32;
        Self { scale, zero_point }
    }
}

/// Quantize an f32 matrix to u8, returning the data and its parameters.
pub fn quantize_f32(m: &Matrix<f32>) -> (Matrix<u8>, QuantParams) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in m.data() {
        min = min.min(v);
        max = max.max(v);
    }
    if m.is_empty() {
        return (Matrix::zeroed(m.rows(), m.cols()), QuantParams { scale: 1.0, zero_point: 0 });
    }
    let p = QuantParams::from_range(min, max);
    let q = m
        .data()
        .iter()
        .map(|&v| ((v / p.scale).round() as i32 + p.zero_point).clamp(0, 255) as u8)
        .collect();
    (Matrix::from_vec(m.rows(), m.cols(), q), p)
}

/// Recover approximate reals from quantized data.
pub fn dequantize(m: &Matrix<u8>, p: QuantParams) -> Matrix<f32> {
    let data = m.data().iter().map(|&q| p.scale * (q as i32 - p.zero_point) as f32).collect();
    Matrix::from_vec(m.rows(), m.cols(), data)
}

/// Re-quantize a 32-bit GEMM result down to u8 (the §5.3 "re-quantization").
///
/// Scans for min/max, then converts — the same double pass TensorFlow
/// performs after every Conv2D.
pub fn requantize_i32(m: &Matrix<i32>) -> (Matrix<u8>, f32) {
    let mut min = i32::MAX;
    let mut max = i32::MIN;
    for &v in m.data() {
        min = min.min(v);
        max = max.max(v);
    }
    if m.is_empty() {
        return (Matrix::zeroed(m.rows(), m.cols()), 1.0);
    }
    let range = (max as i64 - min as i64).max(1) as f32;
    let scale = range / 255.0;
    let q = m
        .data()
        .iter()
        .map(|&v| (((v as i64 - min as i64) as f32 / scale).round() as i64).clamp(0, 255) as u8)
        .collect();
    (Matrix::from_vec(m.rows(), m.cols(), q), scale)
}

/// Traffic/op model of one 32-bit quantization pass over `elems` elements:
/// two full scans (min/max, then convert) at 4 B/element, with one narrow
/// write (§5.3, Figure 8's steps 1–2).
pub fn quantize_tracked(ctx: &mut SimContext, elems: usize) {
    let buf32: Tracked<i32> = Tracked::zeroed(ctx, elems);
    let buf8: Tracked<u8> = Tracked::zeroed(ctx, elems);
    // Pass 1: min/max scan.
    buf32.touch_range(ctx, 0, elems, pim_core::AccessKind::Read);
    ctx.ops(OpMix { simd: elems as u64 / 4, ..OpMix::default() });
    // Pass 2: read again, convert, write 8-bit.
    buf32.touch_range(ctx, 0, elems, pim_core::AccessKind::Read);
    buf8.touch_range(ctx, 0, elems, pim_core::AccessKind::Write);
    ctx.ops(OpMix { simd: elems as u64 / 4, mul: elems as u64 / 8, scalar: elems as u64 / 8, ..OpMix::default() });
}

/// The §9 quantization microbenchmark: post-Conv2D re-quantization over
/// GEMM-result-sized matrices.
#[derive(Debug)]
pub struct QuantizationKernel {
    shapes: Vec<(usize, usize)>,
    /// Quantized outputs of the last run (one checksum per matrix).
    pub checksums: Vec<u64>,
}

impl QuantizationKernel {
    /// Re-quantize result matrices of the given `(rows, cols)` shapes.
    pub fn new(shapes: Vec<(usize, usize)>) -> Self {
        Self { shapes, checksums: Vec::new() }
    }

    /// Result-matrix sizes reflecting real GEMM outputs (§9).
    pub fn paper_input() -> Self {
        Self::new(vec![(784, 64), (784, 128), (196, 256), (196, 512)])
    }
}

impl Kernel for QuantizationKernel {
    fn name(&self) -> &'static str {
        "quantization"
    }

    fn working_set_bytes(&self) -> u64 {
        self.shapes.iter().map(|&(r, c)| (r * c * 4) as u64).sum()
    }

    fn run(&mut self, ctx: &mut SimContext) {
        self.checksums.clear();
        let shapes = self.shapes.clone();
        ctx.scoped("quantization", |ctx| {
            for (i, &(r, c)) in shapes.iter().enumerate() {
                if ctx.tracer().events_enabled() {
                    ctx.mark(format!("quantize {r}x{c}"));
                }
                // Real conversion on synthetic data...
                let m = Matrix::<f32>::synthetic(r, c, 8.0, i as u64 + 1);
                let scaled: Vec<i32> =
                    m.data().iter().map(|&v| (v * 1000.0) as i32).collect();
                let m32 = Matrix::from_vec(r, c, scaled);
                let (q, _) = requantize_i32(&m32);
                self.checksums
                    .push(q.data().iter().fold(0u64, |a, &b| a.rotate_left(7) ^ b as u64));
                // ...and the corresponding traffic.
                quantize_tracked(ctx, r * c);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_bounds_error_by_scale() {
        let m = Matrix::synthetic(16, 16, 4.0, 3);
        let (q, p) = quantize_f32(&m);
        let back = dequantize(&q, p);
        for (a, b) in m.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= p.scale, "{a} vs {b} (scale {})", p.scale);
        }
    }

    #[test]
    fn quant_params_cover_zero() {
        let p = QuantParams::from_range(1.0, 5.0); // min clamped to 0
        assert_eq!(p.zero_point, 0);
        let p = QuantParams::from_range(-5.0, -1.0);
        assert_eq!(p.zero_point, 255);
    }

    #[test]
    fn requantize_hits_full_u8_range() {
        let m = Matrix::from_vec(1, 4, vec![-1000, 0, 500, 1000]);
        let (q, _) = requantize_i32(&m);
        assert_eq!(q.data()[0], 0);
        assert_eq!(q.data()[3], 255);
    }

    #[test]
    fn requantize_constant_matrix_is_stable() {
        let m = Matrix::from_vec(2, 2, vec![42; 4]);
        let (q, _) = requantize_i32(&m);
        assert!(q.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn tracked_pass_moves_8_bytes_per_element_plus_output() {
        let mut ctx = pim_core::SimContext::cpu_only(pim_core::Platform::baseline());
        quantize_tracked(&mut ctx, 1 << 16);
        let act = ctx.total_activity();
        // Two 4 B reads per element + 1 B write, at line granularity.
        let expected_lines = (2 * 4 * (1 << 16) + (1 << 16)) / 64;
        assert!((act.l1_accesses as i64 - expected_lines as i64).abs() < 64);
    }

    #[test]
    fn kernel_is_memory_bound_and_pim_friendly() {
        use pim_core::{ExecutionMode, OffloadEngine};
        let eng = OffloadEngine::new();
        let mut k = QuantizationKernel::paper_input();
        let cpu = eng.run(&mut k, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut k, ExecutionMode::PimCore);
        assert!(cpu.mpki > 10.0, "mpki {}", cpu.mpki);
        assert!(cpu.energy.data_movement_fraction() > 0.6);
        assert!(pim.energy_vs(&cpu) < 0.7);
    }
}
