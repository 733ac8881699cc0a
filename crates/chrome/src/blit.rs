//! Color blitting: the Skia rasterization back-end (paper §4.2.2).
//!
//! A blitter converts high-level draw primitives into bitmap writes. Its
//! primary operation is copying/combining blocks of pixels: solid fills
//! (`memset`), copies (`memcopy`), and alpha blending (shift/add/mul) —
//! exactly the op set the paper lists. It streams whole rows, so its data
//! movement is large and its locality poor once bitmaps exceed the LLC.

use pim_core::rng::SplitMix64;
use pim_core::{Kernel, OpMix, SimContext, Tracked};

use crate::bitmap::{blend_pixel, Bitmap};

/// A blit primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlitOp {
    /// Fill the destination rect with a solid color (`memset`).
    Fill(u32),
    /// Copy the source bitmap into the destination (`memcopy`).
    Copy,
    /// Alpha-blend the source bitmap over the destination.
    Blend,
}

/// Blit `src` (or a fill color) onto `dst` at `(x0, y0)`, reporting traffic.
///
/// `src` and `dst` are tracked pixel buffers with their logical widths.
/// Returns nothing; `dst` is updated in place.
///
/// # Panics
///
/// Panics if the blit rectangle falls outside `dst`.
#[allow(clippy::too_many_arguments)]
pub fn blit(
    ctx: &mut SimContext,
    op: BlitOp,
    src: &Tracked<u32>,
    src_w: usize,
    dst: &mut Tracked<u32>,
    dst_w: usize,
    x0: usize,
    y0: usize,
) {
    let src_h = src.len().checked_div(src_w).unwrap_or(0);
    let dst_h = dst.len().checked_div(dst_w).unwrap_or(0);
    // The blit rectangle always matches the source geometry (fills use the
    // source buffer for geometry only and never read it).
    let (w, h) = (src_w, src_h);
    assert!(x0 + w <= dst_w && y0 + h <= dst_h, "blit rect out of bounds");
    for y in 0..h {
        let drow = (y0 + y) * dst_w + x0;
        match op {
            BlitOp::Fill(color) => {
                dst.fill_range(ctx, drow, w, color);
                // memset: one wide store per 16 B.
                ctx.ops(OpMix { scalar: 2, simd: (w * 4 / 16).max(1) as u64, ..OpMix::default() });
            }
            BlitOp::Copy => {
                dst.copy_range_from(ctx, drow, src, y * src_w, w);
                ctx.ops(OpMix { scalar: 2, simd: (w * 4 / 16).max(1) as u64, ..OpMix::default() });
            }
            BlitOp::Blend => {
                let srow = src.read_range(ctx, y * src_w, w);
                // Blending reads the destination row before overwriting it
                // (map_range reports the read + write; no row copy).
                dst.map_range(ctx, drow, w, |out| {
                    for (d, s) in out.iter_mut().zip(srow.iter()) {
                        *d = blend_pixel(*s, *d);
                    }
                });
                // Skia's SIMD blitter: unpack/MAC/repack, ~4 px per op.
                ctx.ops(OpMix {
                    scalar: (w / 8).max(1) as u64,
                    simd: (3 * w / 4).max(1) as u64,
                    ..OpMix::default()
                });
            }
        }
    }
}

/// The §9 color-blitting microbenchmark: a stream of fills, copies and
/// blends of randomly sized bitmaps (32×32 … 1024×1024) onto a target
/// surface, following Skia's blitter structure.
#[derive(Debug)]
pub struct ColorBlittingKernel {
    sizes: Vec<usize>,
    surface_px: usize,
    seed: u64,
    /// Checksum of the final surface (for determinism checks).
    pub checksum: u64,
}

impl ColorBlittingKernel {
    /// Blit bitmaps of each `size` (square, pixels) onto a surface of
    /// `surface_px` × `surface_px`.
    pub fn new(sizes: Vec<usize>, surface_px: usize, seed: u64) -> Self {
        Self { sizes, surface_px, seed, checksum: 0 }
    }

    /// The paper's input mix: 32×32 up to 1024×1024 bitmaps (§9).
    ///
    /// The surface is 1024×1024 (a 4 MB target, large enough to defeat the
    /// 2 MB LLC, as in §4.2.2's discussion of bitmap sizes).
    pub fn paper_input() -> Self {
        Self::new(vec![32, 64, 128, 256, 512, 1024, 512, 128], 1024, 0xb117)
    }

    /// Run the blit stream.
    pub fn execute(&mut self, ctx: &mut SimContext) {
        let surface_w = self.surface_px;
        let mut rng = SplitMix64::new(self.seed);
        let mut dst: Tracked<u32> = Tracked::zeroed(ctx, surface_w * surface_w);
        ctx.scoped("color_blitting", |ctx| {
            for (i, &size) in self.sizes.iter().enumerate() {
                let bm = Bitmap::synthetic(size, size, self.seed ^ i as u64);
                let src: Tracked<u32> = Tracked::from_vec(ctx, bm.pixels().to_vec());
                let room = surface_w - size;
                let x0 = if room == 0 { 0 } else { rng.next_below(room as u64) as usize };
                let y0 = if room == 0 { 0 } else { rng.next_below(room as u64) as usize };
                let op = match i % 3 {
                    0 => BlitOp::Fill(0xFF00_0000 | rng.next_u64() as u32 & 0xFFFFFF),
                    1 => BlitOp::Copy,
                    _ => BlitOp::Blend,
                };
                if ctx.tracer().events_enabled() {
                    let kind = match op {
                        BlitOp::Fill(_) => "fill",
                        BlitOp::Copy => "copy",
                        BlitOp::Blend => "blend",
                    };
                    ctx.mark(format!("blit {kind} {size}x{size}"));
                }
                blit(ctx, op, &src, size, &mut dst, surface_w, x0, y0);
            }
        });
        self.checksum = dst
            .as_slice()
            .iter()
            .fold(0u64, |acc, &p| acc.rotate_left(5) ^ p as u64);
    }
}

impl Kernel for ColorBlittingKernel {
    fn name(&self) -> &'static str {
        "color_blitting"
    }

    fn working_set_bytes(&self) -> u64 {
        (self.surface_px * self.surface_px * 4) as u64
    }

    fn run(&mut self, ctx: &mut SimContext) {
        self.execute(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::{ExecutionMode, OffloadEngine, Platform};

    fn ctx() -> SimContext {
        SimContext::cpu_only(Platform::baseline())
    }

    #[test]
    fn fill_writes_solid_color() {
        let mut c = ctx();
        let src: Tracked<u32> = Tracked::zeroed(&mut c, 4 * 4);
        let mut dst: Tracked<u32> = Tracked::zeroed(&mut c, 8 * 8);
        blit(&mut c, BlitOp::Fill(0xFFAA_BBCC), &src, 4, &mut dst, 8, 2, 2);
        assert_eq!(dst.as_slice()[2 * 8 + 2], 0xFFAA_BBCC);
        assert_eq!(dst.as_slice()[0], 0);
        assert_eq!(dst.as_slice()[5 * 8 + 5], 0xFFAA_BBCC);
        assert_eq!(dst.as_slice()[6 * 8 + 6], 0);
    }

    #[test]
    fn copy_transfers_source() {
        let mut c = ctx();
        let src: Tracked<u32> = Tracked::from_vec(&mut c, vec![7u32; 16]);
        let mut dst: Tracked<u32> = Tracked::zeroed(&mut c, 64);
        blit(&mut c, BlitOp::Copy, &src, 4, &mut dst, 8, 0, 0);
        assert_eq!(dst.as_slice()[0..4], [7, 7, 7, 7]);
        assert_eq!(dst.as_slice()[8..12], [7, 7, 7, 7]);
        assert_eq!(dst.as_slice()[4], 0);
    }

    #[test]
    fn blend_mixes_channels() {
        let mut c = ctx();
        // 50% white over opaque black.
        let src: Tracked<u32> = Tracked::from_vec(&mut c, vec![0x80FF_FFFF; 4]);
        let mut dst: Tracked<u32> = Tracked::from_vec(&mut c, vec![0xFF00_0000; 4]);
        blit(&mut c, BlitOp::Blend, &src, 2, &mut dst, 2, 0, 0);
        let r = dst.as_slice()[0] & 0xFF;
        assert!((125..=131).contains(&r));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_blit_panics() {
        let mut c = ctx();
        let src: Tracked<u32> = Tracked::zeroed(&mut c, 16);
        let mut dst: Tracked<u32> = Tracked::zeroed(&mut c, 16);
        blit(&mut c, BlitOp::Copy, &src, 4, &mut dst, 4, 2, 2);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut a = ColorBlittingKernel::new(vec![32, 64], 128, 9);
        let mut b = ColorBlittingKernel::new(vec![32, 64], 128, 9);
        a.execute(&mut ctx());
        b.execute(&mut ctx());
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.checksum, 0);
    }

    #[test]
    fn paper_evaluation_shape_holds() {
        let eng = OffloadEngine::new();
        let mut k = ColorBlittingKernel::paper_input();
        let cpu = eng.run(&mut k, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut k, ExecutionMode::PimCore);
        assert!(cpu.mpki > 10.0, "blitting must be memory-intensive: {}", cpu.mpki);
        assert!(pim.energy_vs(&cpu) < 0.75, "PIM-Core ratio {}", pim.energy_vs(&cpu));
        assert!(pim.speedup_vs(&cpu) > 1.0);
        // Blitting computes more than tiling: its DM fraction is lower.
        assert!(cpu.energy.data_movement_fraction() > 0.5);
    }
}
