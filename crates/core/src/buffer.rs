//! Simulated-address buffers and data-carrying tracked vectors.

use crate::context::SimContext;
use pim_memsim::AccessKind;

/// A region of simulated address space.
///
/// A `Buffer` carries *no data* — only placement. Kernels that keep their
/// own state (e.g. a frame in a `Vec<u8>`) allocate a `Buffer` of matching
/// size and report accesses against it. Kernels that want the bookkeeping
/// done for them use [`Tracked`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    base: u64,
    len: u64,
}

impl Buffer {
    pub(crate) fn new(base: u64, len: u64) -> Self {
        Self { base, len }
    }

    /// Base simulated address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Simulated address of byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn addr(&self, offset: u64) -> u64 {
        assert!(offset < self.len, "offset {offset} out of bounds ({})", self.len);
        self.base + offset
    }
}

/// A vector of real data bound to a simulated address range.
///
/// Every tracked borrow ([`Tracked::read_range`], [`Tracked::write_range`],
/// [`Tracked::fill_range`], …) performs the actual data access *and*
/// reports it to the [`SimContext`], so kernels stay honest: the simulated
/// traffic is exactly the traffic the computation needed. The helpers
/// report whole ranges and row descriptors rather than per-element
/// traffic, which is how the hardware (and the paper's analysis) sees a
/// streaming kernel.
///
/// ```
/// use pim_core::{Platform, SimContext, Tracked};
/// let mut ctx = SimContext::cpu_only(Platform::baseline());
/// let mut v: Tracked<u32> = Tracked::zeroed(&mut ctx, 1024);
/// v.fill_range(&mut ctx, 0, 16, 42);
/// assert_eq!(v.read_range(&mut ctx, 7, 2), &[42, 42]);
/// ```
#[derive(Debug, Clone)]
pub struct Tracked<T> {
    data: Vec<T>,
    buf: Buffer,
}

impl<T: Copy + Default> Tracked<T> {
    /// Allocate `len` default-initialized elements.
    pub fn zeroed(ctx: &mut SimContext, len: usize) -> Self {
        Self::from_vec(ctx, vec![T::default(); len])
    }
}

impl<T: Copy> Tracked<T> {
    /// Bind an existing vector to freshly allocated simulated addresses.
    pub fn from_vec(ctx: &mut SimContext, data: Vec<T>) -> Self {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let buf = ctx.alloc(bytes.max(1));
        Self { data, buf }
    }

    fn elem_bytes() -> u64 {
        std::mem::size_of::<T>() as u64
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated placement of this vector.
    pub fn buffer(&self) -> Buffer {
        self.buf
    }

    /// Borrow `n` elements starting at `i` as a slice, reporting one ranged
    /// read (a streaming load of the whole range).
    pub fn read_range(&self, ctx: &mut SimContext, i: usize, n: usize) -> &[T] {
        let bytes = n as u64 * Self::elem_bytes();
        if n > 0 {
            ctx.read(self.buf.addr(i as u64 * Self::elem_bytes()), bytes);
        }
        &self.data[i..i + n]
    }

    /// Mutably borrow `n` elements starting at `i`, reporting one ranged
    /// write (a streaming store over the whole range).
    pub fn write_range(&mut self, ctx: &mut SimContext, i: usize, n: usize) -> &mut [T] {
        let bytes = n as u64 * Self::elem_bytes();
        if n > 0 {
            ctx.write(self.buf.addr(i as u64 * Self::elem_bytes()), bytes);
        }
        &mut self.data[i..i + n]
    }

    /// Report a ranged access without borrowing (for mixed R/W passes).
    pub fn touch_range(&self, ctx: &mut SimContext, i: usize, n: usize, kind: AccessKind) {
        if n == 0 {
            return;
        }
        let bytes = n as u64 * Self::elem_bytes();
        ctx.access(self.buf.addr(i as u64 * Self::elem_bytes()), bytes, kind);
    }

    /// Starting element index of every `width`-element row, in order.
    /// Streaming kernels iterate this and issue one ranged access per row
    /// instead of per-element traffic. A trailing partial row is skipped.
    pub fn rows(&self, width: usize) -> impl Iterator<Item = usize> {
        let n = self.data.len().checked_div(width).unwrap_or(0);
        (0..n).map(move |r| r * width)
    }

    /// Read-modify-write `n` elements starting at `i` in place: report
    /// one ranged read, then one ranged write, then apply `f` to the
    /// slice. The traffic matches a streaming load + store of the range.
    pub fn map_range(
        &mut self,
        ctx: &mut SimContext,
        i: usize,
        n: usize,
        f: impl FnOnce(&mut [T]),
    ) {
        self.touch_range(ctx, i, n, AccessKind::Read);
        f(self.write_range(ctx, i, n));
    }

    /// Copy `n` elements from `src[src_i..]` into `self[dst_i..]`,
    /// reporting one ranged read on `src` and one ranged write on `self`
    /// — the same traffic as a streaming row copy, with no intermediate
    /// allocation.
    pub fn copy_range_from(
        &mut self,
        ctx: &mut SimContext,
        dst_i: usize,
        src: &Tracked<T>,
        src_i: usize,
        n: usize,
    ) {
        let from = src.read_range(ctx, src_i, n);
        self.write_range(ctx, dst_i, n).copy_from_slice(from);
    }

    /// Store `v` into `n` elements starting at `i`, reporting one ranged
    /// write (a streaming fill).
    pub fn fill_range(&mut self, ctx: &mut SimContext, i: usize, n: usize, v: T) {
        self.write_range(ctx, i, n).fill(v);
    }

    /// Direct untracked view (for asserting results in tests; does not
    /// generate simulated traffic).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume the wrapper and return the data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn buffer_addr_bounds() {
        let b = Buffer::new(0x1000, 64);
        assert_eq!(b.addr(0), 0x1000);
        assert_eq!(b.addr(63), 0x103f);
        assert!(std::panic::catch_unwind(|| b.addr(64)).is_err());
    }

    #[test]
    fn tracked_generates_traffic() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let t: Tracked<u64> = Tracked::zeroed(&mut ctx, 8192);
        let before = ctx.total_activity().l1_accesses;
        t.read_range(&mut ctx, 0, 8192);
        let after = ctx.total_activity().l1_accesses;
        assert_eq!(after - before, 8192 * 8 / 64); // one per line
    }

    #[test]
    fn distinct_tracked_vectors_do_not_alias() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let a: Tracked<u8> = Tracked::zeroed(&mut ctx, 4096);
        let b: Tracked<u8> = Tracked::zeroed(&mut ctx, 4096);
        let (ab, bb) = (a.buffer(), b.buffer());
        assert!(ab.base() + ab.len() <= bb.base() || bb.base() + bb.len() <= ab.base());
    }

    #[test]
    fn empty_buffer_rejects_all_offsets() {
        let b = Buffer::new(0x1000, 0);
        assert!(b.is_empty());
        assert!(std::panic::catch_unwind(|| b.addr(0)).is_err(), "addr(0) on empty must panic");
        assert!(std::panic::catch_unwind(|| b.addr(1)).is_err());
    }

    #[test]
    fn rows_yields_full_row_offsets() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let t: Tracked<u8> = Tracked::zeroed(&mut ctx, 10);
        assert_eq!(t.rows(4).collect::<Vec<_>>(), vec![0, 4], "trailing partial row skipped");
        assert_eq!(t.rows(0).count(), 0);
    }

    #[test]
    fn copy_range_from_matches_manual_copy_traffic() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let src: Tracked<u32> = Tracked::from_vec(&mut ctx, (0..256u32).collect());
        let mut a: Tracked<u32> = Tracked::zeroed(&mut ctx, 256);
        let mut b: Tracked<u32> = Tracked::zeroed(&mut ctx, 256);
        let t0 = ctx.total_activity().l1_accesses;
        a.copy_range_from(&mut ctx, 0, &src, 0, 256);
        let helper = ctx.total_activity().l1_accesses - t0;
        let t0 = ctx.total_activity().l1_accesses;
        let row = src.read_range(&mut ctx, 0, 256).to_vec();
        b.write_range(&mut ctx, 0, 256).copy_from_slice(&row);
        let manual = ctx.total_activity().l1_accesses - t0;
        assert_eq!(a.as_slice(), src.as_slice());
        assert_eq!(helper, manual);
    }

    #[test]
    fn map_range_reads_then_writes() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let mut t: Tracked<u8> = Tracked::from_vec(&mut ctx, vec![1; 128]);
        let t0 = ctx.total_activity().l1_accesses;
        t.map_range(&mut ctx, 0, 128, |s| s.iter_mut().for_each(|v| *v += 1));
        let lines = ctx.total_activity().l1_accesses - t0;
        assert_eq!(t.as_slice()[0], 2);
        assert_eq!(lines, 2 * 2, "128 B = 2 lines read + 2 lines written");
    }

    #[test]
    fn fill_range_writes_once() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let mut t: Tracked<u8> = Tracked::zeroed(&mut ctx, 64);
        t.fill_range(&mut ctx, 0, 64, 9);
        assert!(t.as_slice().iter().all(|&v| v == 9));
    }

    #[test]
    fn empty_range_reports_nothing() {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let t: Tracked<u8> = Tracked::zeroed(&mut ctx, 16);
        let before = ctx.total_activity();
        t.read_range(&mut ctx, 0, 0);
        assert_eq!(ctx.total_activity(), before);
    }
}
