//! Texture tiling: linear bitmap → 4 kB GPU tiles (paper §4.2.2).
//!
//! After rasterization, the graphics driver reorganizes the linear bitmap
//! into tiles so the GPU composites with good locality; the Intel i965
//! driver the paper emulates uses 4 kB tiles. At RGBA8888 that is a 32×32-
//! pixel tile. The kernel reads the linear bitmap with a strided pattern
//! and writes each tile contiguously — a pure data-reorganization function
//! built from memcopy, address arithmetic and bitwise ops.

use pim_core::{Kernel, OpMix, SimContext, Tracked};

use crate::bitmap::Bitmap;

/// Tile edge in pixels; 32×32 RGBA = 4 kB, matching the i965 driver.
pub const TILE_PX: usize = 32;

/// Reorganize a linear bitmap into tile order.
///
/// Returns the tiled pixel buffer: tiles in row-major tile order, each tile
/// stored contiguously row-major.
///
/// # Panics
///
/// Panics if the bitmap's dimensions are not multiples of [`TILE_PX`].
pub fn tile_bitmap(bm: &Bitmap) -> Vec<u32> {
    assert!(
        bm.width().is_multiple_of(TILE_PX) && bm.height().is_multiple_of(TILE_PX),
        "bitmap must be tile-aligned"
    );
    let (w, h) = (bm.width(), bm.height());
    let mut out = vec![0u32; w * h];
    let tiles_x = w / TILE_PX;
    for ty in 0..h / TILE_PX {
        for tx in 0..tiles_x {
            let tile_base = (ty * tiles_x + tx) * TILE_PX * TILE_PX;
            for y in 0..TILE_PX {
                let src = (ty * TILE_PX + y) * w + tx * TILE_PX;
                let dst = tile_base + y * TILE_PX;
                out[dst..dst + TILE_PX].copy_from_slice(&bm.pixels()[src..src + TILE_PX]);
            }
        }
    }
    out
}

/// Inverse of [`tile_bitmap`]: tile order back to a linear bitmap.
///
/// # Panics
///
/// Panics if `tiled.len() != width * height` or dimensions are not
/// tile-aligned.
pub fn untile_bitmap(tiled: &[u32], width: usize, height: usize) -> Bitmap {
    assert!(width.is_multiple_of(TILE_PX) && height.is_multiple_of(TILE_PX), "dimensions must be tile-aligned");
    assert_eq!(tiled.len(), width * height, "pixel count mismatch");
    let mut bm = Bitmap::new(width, height);
    let tiles_x = width / TILE_PX;
    for ty in 0..height / TILE_PX {
        for tx in 0..tiles_x {
            let tile_base = (ty * tiles_x + tx) * TILE_PX * TILE_PX;
            for y in 0..TILE_PX {
                let dst = (ty * TILE_PX + y) * width + tx * TILE_PX;
                let src = tile_base + y * TILE_PX;
                bm.pixels_mut()[dst..dst + TILE_PX].copy_from_slice(&tiled[src..src + TILE_PX]);
            }
        }
    }
    bm
}

/// The §9 texture-tiling microbenchmark: `glTexImage2D`-style tiling of an
/// RGBA bitmap (512×512 by default, as in the paper's evaluation).
#[derive(Debug)]
pub struct TextureTilingKernel {
    bitmap: Bitmap,
    /// The tiled output of the last run (for verification).
    pub tiled: Vec<u32>,
}

impl TextureTilingKernel {
    /// Tile a synthetic bitmap of the given size.
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        Self { bitmap: Bitmap::synthetic(width, height, seed), tiled: Vec::new() }
    }

    /// The paper's input: 512×512 RGBA tiles (§9).
    pub fn paper_input() -> Self {
        Self::new(512, 512, 0x7e97)
    }

    /// The input bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// Run the tiling loop against a context, reporting traffic: strided
    /// row-segment reads from the linear bitmap, contiguous tile writes.
    pub fn execute(&mut self, ctx: &mut SimContext) {
        let (w, h) = (self.bitmap.width(), self.bitmap.height());
        let src: Tracked<u32> = Tracked::from_vec(ctx, self.bitmap.pixels().to_vec());
        let mut dst: Tracked<u32> = Tracked::zeroed(ctx, w * h);
        let tiles_x = w / TILE_PX;
        ctx.scoped("texture_tiling", |ctx| {
            for ty in 0..h / TILE_PX {
                if ctx.tracer().events_enabled() {
                    ctx.mark(format!("tile-row {ty}"));
                }
                for tx in 0..tiles_x {
                    let tile_base = (ty * tiles_x + tx) * TILE_PX * TILE_PX;
                    for y in 0..TILE_PX {
                        let s = (ty * TILE_PX + y) * w + tx * TILE_PX;
                        let d = tile_base + y * TILE_PX;
                        dst.copy_range_from(ctx, d, &src, s, TILE_PX);
                        // Address math + 16-byte-wide copies.
                        ctx.ops(OpMix { scalar: 4, simd: (TILE_PX * 4 / 16) as u64, ..OpMix::default() });
                    }
                }
            }
        });
        self.tiled = dst.into_vec();
    }
}

impl Kernel for TextureTilingKernel {
    fn name(&self) -> &'static str {
        "texture_tiling"
    }

    fn working_set_bytes(&self) -> u64 {
        2 * self.bitmap.bytes()
    }

    fn run(&mut self, ctx: &mut SimContext) {
        self.execute(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::{ExecutionMode, OffloadEngine, Platform};

    #[test]
    fn tile_untile_roundtrip() {
        let bm = Bitmap::synthetic(128, 96, 11);
        let tiled = tile_bitmap(&bm);
        let back = untile_bitmap(&tiled, 128, 96);
        assert_eq!(back, bm);
    }

    #[test]
    fn tiles_are_contiguous() {
        // A bitmap whose first tile is a known constant: the first 1024
        // tiled pixels must equal that constant.
        let mut bm = Bitmap::new(64, 64);
        for y in 0..TILE_PX {
            for x in 0..TILE_PX {
                bm.pixels_mut()[y * 64 + x] = 0xABCD;
            }
        }
        let tiled = tile_bitmap(&bm);
        assert!(tiled[..TILE_PX * TILE_PX].iter().all(|&p| p == 0xABCD));
        assert!(tiled[TILE_PX * TILE_PX..].iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "tile-aligned")]
    fn unaligned_bitmap_panics() {
        tile_bitmap(&Bitmap::new(100, 64));
    }

    #[test]
    fn kernel_matches_reference_function() {
        let mut k = TextureTilingKernel::new(64, 64, 3);
        let expected = tile_bitmap(k.bitmap());
        let mut ctx = pim_core::SimContext::cpu_only(Platform::baseline());
        k.execute(&mut ctx);
        assert_eq!(k.tiled, expected);
    }

    #[test]
    fn kernel_moves_the_whole_bitmap_twice() {
        let mut k = TextureTilingKernel::new(64, 64, 3);
        let mut ctx = pim_core::SimContext::cpu_only(Platform::baseline());
        k.execute(&mut ctx);
        let act = ctx.total_activity();
        // 64*64*4 = 16 kB read + 16 kB written; all lines touched.
        assert!(act.l1_accesses >= 2 * 16 * 1024 / 64);
    }

    #[test]
    fn paper_evaluation_shape_holds() {
        // Figure 18: PIM beats CPU on energy; tiling is memory-intensive.
        let eng = OffloadEngine::new();
        let mut k = TextureTilingKernel::paper_input();
        let cpu = eng.run(&mut k, ExecutionMode::CpuOnly);
        let pim = eng.run(&mut k, ExecutionMode::PimCore);
        let acc = eng.run(&mut k, ExecutionMode::PimAcc);
        assert!(cpu.mpki > 10.0, "tiling must be memory-intensive: {}", cpu.mpki);
        assert!(pim.energy_vs(&cpu) < 0.7, "PIM-Core ratio {}", pim.energy_vs(&cpu));
        assert!(acc.energy_vs(&cpu) <= pim.energy_vs(&cpu) + 0.02);
        assert!(pim.speedup_vs(&cpu) > 1.0);
    }
}
