//! Simulated global-memory buffers.
//!
//! A [`GpuBuffer`] is a typed device allocation. Kernel code can only reach
//! it through a [`Lane`](crate::block::Lane), whose accessors *both*
//! perform the access and charge the cost model — so the accounting can
//! never drift from what the kernel actually did. Host code uses
//! [`GpuBuffer::host`] and the element accessors, which model
//! `cudaMemcpy`-style setup traffic outside the timed kernel regions
//! (the paper excludes host↔device staging from its measurements; the
//! engines only stage between updates).
//!
//! # Sharing model
//!
//! Buffers are [`Sync`] so that [`Gpu::launch`](crate::Gpu::launch) can run
//! simulated blocks on real host threads. Storage is a slab of
//! [`UnsafeCell`] elements; soundness rests on the same contract a real GPU
//! imposes on global memory:
//!
//! * plain reads/writes from concurrent blocks must target **disjoint
//!   cells** (the engines partition scratch and state rows per block);
//! * any cell that concurrent blocks *do* contend on must be accessed only
//!   through the atomic methods, which operate on real
//!   [`AtomicU32`]/[`AtomicU64`]/[`AtomicU8`] views of the same storage —
//!   and, for the *result* (not just memory safety) to stay
//!   thread-count-independent, with a single self-commuting operation per
//!   cell per launch (all adds, or all maxes, or all CAS gates with one
//!   expected value; mixing e.g. add and max on one cell is
//!   order-dependent on real hardware too);
//! * whole-buffer views ([`GpuBuffer::host`], [`GpuBuffer::to_vec`], …) are
//!   host-side staging and must not be taken while a launch is running;
//!   inside a launch, read element-wise with [`GpuBuffer::host_get`],
//!   which is safe as long as the cell is not concurrently written by
//!   another block.
//!
//! Cross-block `f64` accumulation is deliberately **not** offered as a
//! shared-cell atomic in the engines: floating-point addition does not
//! commute bitwise, so contended `atomicAdd(f64)` would make results depend
//! on thread interleaving. The BC engines instead write per-block delta
//! slabs and reduce them serially in block order (see
//! `ScratchBuffers::bc_delta` in `dynbc-bc`), which keeps every float
//! bit-identical for any `DYNBC_HOST_THREADS`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8};

/// Scalar element types kernels may move through [`Lane`](crate::Lane) and
/// scalar accessors: plain-old-data values whose bit pattern fits in 64
/// bits, so checked execution can record written values in its shadow
/// state (and synthesize a zero for a suppressed out-of-bounds read).
pub trait DeviceValue: Copy {
    /// The value's raw bits, zero-extended to 64.
    fn to_raw_bits(self) -> u64;
    /// Rebuilds a value from raw bits (inverse of [`Self::to_raw_bits`]).
    fn from_raw_bits(bits: u64) -> Self;
}

macro_rules! device_value_int {
    ($($t:ty),*) => {$(
        impl DeviceValue for $t {
            #[inline]
            fn to_raw_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_raw_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}

device_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl DeviceValue for f64 {
    #[inline]
    fn to_raw_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl DeviceValue for f32 {
    #[inline]
    fn to_raw_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl DeviceValue for bool {
    #[inline]
    fn to_raw_bits(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_raw_bits(bits: u64) -> Self {
        bits != 0
    }
}

/// First synthetic address of every device's address space.
pub(crate) const FIRST_BASE: u64 = 0x1000;

/// Interior-mutable element storage shareable across block threads.
///
/// `repr(transparent)` guarantees the same layout as `T`, so an atomic view
/// of the inner value is layout-compatible with the plain value.
#[repr(transparent)]
struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: `SyncCell` is shared across the scoped threads of a launch. The
// access contract is documented on the module: concurrent plain access is
// only ever to disjoint cells, and contended cells go through the atomic
// views below. Host-side (single-threaded) access is unrestricted.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SyncCell<T> {}

/// A typed buffer in simulated device memory, allocated through the
/// [`Gpu`](crate::Gpu) whose launches use it.
pub struct GpuBuffer<T: Copy> {
    data: Box<[SyncCell<T>]>,
    pub(crate) base: u64,
    name: &'static str,
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for GpuBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuBuffer")
            .field("name", &self.name)
            .field("len", &self.data.len())
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

#[allow(unsafe_code)]
impl<T: Copy> GpuBuffer<T> {
    /// Places `data` at the next free address of a device's address
    /// space, advancing `next_base` past it. Buffers get disjoint,
    /// 256-byte-aligned ranges so segment ids never collide across the
    /// buffers of one device; each [`Gpu`](crate::Gpu) owns its counter
    /// ([`Gpu::alloc`](crate::Gpu::alloc), [`Gpu::upload`](crate::Gpu::upload)),
    /// so addresses depend only on that device's allocation order.
    pub(crate) fn place(data: Vec<T>, next_base: &mut u64) -> Self {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let base = *next_base;
        *next_base += (bytes + 256).next_multiple_of(256);
        // Reuse the allocation instead of copying element by element: a
        // copy writes every page of a zero-filled buffer that the kernels
        // may never touch.
        let cells = Box::into_raw(data.into_boxed_slice()) as *mut [SyncCell<T>];
        // SAFETY: `SyncCell<T>` is `repr(transparent)` over `UnsafeCell<T>`,
        // which has the same in-memory representation as `T`, so the slice
        // reinterprets element for element with the same length, and the
        // box keeps the allocation it came from.
        let data = unsafe { Box::from_raw(cells) };
        Self {
            data,
            base,
            name: "unnamed",
        }
    }

    /// Attaches a diagnostic name (builder-style); out-of-bounds messages
    /// and racecheck reports identify the buffer by it.
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The buffer's diagnostic name (`"unnamed"` unless set via
    /// [`Self::named`]).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Synthetic device address of element `i` (used for coalescing).
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> u64 {
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Raw element read.
    ///
    /// Sound while every concurrent writer of cell `i` (if any) is this
    /// thread — the per-block disjointness contract.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        debug_assert!(
            i < self.data.len(),
            "out-of-bounds read of GpuBuffer `{}`: index {} >= len {}",
            self.name,
            i,
            self.data.len()
        );
        // SAFETY: module contract — no other thread is writing cell `i`
        // concurrently with this read.
        unsafe { *self.data[i].0.get() }
    }

    /// Raw element write (same contract as [`Self::get`]).
    #[inline]
    pub(crate) fn set(&self, i: usize, v: T) {
        debug_assert!(
            i < self.data.len(),
            "out-of-bounds write of GpuBuffer `{}`: index {} >= len {}",
            self.name,
            i,
            self.data.len()
        );
        // SAFETY: module contract — this thread is the only one accessing
        // cell `i` concurrently.
        unsafe { *self.data[i].0.get() = v }
    }

    /// Raw write of `v` to cells `start..start + len` (same contract as
    /// [`Self::set`], for every cell of the range).
    pub(crate) fn fill_range(&self, start: usize, len: usize, v: T) {
        assert!(
            start + len <= self.data.len(),
            "out-of-bounds fill of GpuBuffer `{}`",
            self.name
        );
        let dst = self.data.as_ptr().cast::<T>().cast_mut();
        for i in start..start + len {
            // SAFETY: in bounds (asserted above); module contract — this
            // thread is the only one accessing these cells concurrently.
            // The pointer comes from the whole slice, and every element
            // is an `UnsafeCell`, so writing through it is permitted.
            unsafe { dst.add(i).write(v) }
        }
    }

    /// Raw copy of `src[src_start..src_start + len]` into cells
    /// `start..start + len` (same contract as [`Self::get`] on the source
    /// cells and [`Self::set`] on the destination cells). The ranges may
    /// overlap; the copy then behaves like `memmove`.
    pub(crate) fn copy_range(
        &self,
        start: usize,
        src: &GpuBuffer<T>,
        src_start: usize,
        len: usize,
    ) {
        assert!(
            start + len <= self.data.len() && src_start + len <= src.data.len(),
            "out-of-bounds copy from GpuBuffer `{}` into `{}`",
            src.name,
            self.name
        );
        // SAFETY: both ranges are in bounds (asserted above); module
        // contract — no other thread writes the source cells or accesses
        // the destination cells concurrently. Both pointers come from
        // whole slices of `UnsafeCell` elements, and `ptr::copy` permits
        // overlap.
        unsafe {
            std::ptr::copy(
                src.data.as_ptr().cast::<T>().add(src_start),
                self.data.as_ptr().cast::<T>().cast_mut().add(start),
                len,
            );
        }
    }

    /// Host-side read of the whole buffer (untimed staging). Must not be
    /// called while a launch is executing on another thread.
    pub fn host(&self) -> &[T] {
        // SAFETY: `SyncCell<T>` is repr(transparent) over `T`, so a slice
        // of cells reinterprets as a slice of values; host-side calls are
        // serialized with launches by construction (Gpu::launch borrows the
        // closure for its full duration and joins all workers on exit).
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<T>(), self.data.len()) }
    }

    /// Host-side element read. Usable inside a launch, unlike
    /// [`Self::host`]: it never forms a reference spanning cells other
    /// blocks may be writing. The caller must still own the cell.
    pub fn host_get(&self, i: usize) -> T {
        self.get(i)
    }

    /// Host-side element write.
    pub fn host_set(&self, i: usize, v: T) {
        self.set(i, v);
    }

    /// Host-side fill (e.g. re-zeroing scratch between updates).
    pub fn fill(&self, v: T) {
        for i in 0..self.data.len() {
            self.set(i, v);
        }
    }

    /// Host-side bulk overwrite from a slice of the same length.
    pub fn copy_from_slice(&self, src: &[T]) {
        assert_eq!(src.len(), self.data.len(), "length mismatch");
        for (i, &v) in src.iter().enumerate() {
            self.set(i, v);
        }
    }

    /// Clones the contents back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.host().to_vec()
    }
}

#[allow(unsafe_code)]
impl GpuBuffer<u32> {
    /// Atomic view of cell `i`, for contended cross-block access.
    #[inline]
    pub(crate) fn atomic(&self, i: usize) -> &AtomicU32 {
        // SAFETY: cell storage is layout-compatible with `u32` and properly
        // aligned; `AtomicU32` has the same size and alignment. All
        // contended access to this cell goes through atomic views.
        unsafe { AtomicU32::from_ptr(self.data[i].0.get()) }
    }
}

#[allow(unsafe_code)]
impl GpuBuffer<u8> {
    /// Atomic view of cell `i`, for contended cross-block access.
    #[inline]
    pub(crate) fn atomic(&self, i: usize) -> &AtomicU8 {
        // SAFETY: as for `GpuBuffer::<u32>::atomic`, with `u8`/`AtomicU8`.
        unsafe { AtomicU8::from_ptr(self.data[i].0.get()) }
    }
}

#[allow(unsafe_code)]
impl GpuBuffer<f64> {
    /// Atomic bit-view of cell `i`: `f64` atomics are CAS loops on the
    /// bit pattern, exactly like CUDA's pre-Pascal `atomicAdd(double*)`.
    #[inline]
    pub(crate) fn atomic_bits(&self, i: usize) -> &AtomicU64 {
        // SAFETY: `f64` and `AtomicU64` share size and (on every supported
        // 64-bit target) alignment; the cell pointer is valid, and all
        // contended access to this cell goes through this view.
        unsafe { AtomicU64::from_ptr(self.data[i].0.get().cast::<u64>()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceConfig, Gpu};
    use std::sync::atomic::Ordering;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn buffers_get_disjoint_address_ranges() {
        let mut g = gpu();
        let a = g.alloc::<u32>(100, 0);
        let b = g.alloc::<u32>(100, 0);
        let a_end = a.addr(99) + 4;
        let b_end = b.addr(99) + 4;
        assert!(
            a_end <= b.base || b_end <= a.base,
            "overlapping allocations"
        );
        assert_eq!(a.base % 256, 0);
        assert_eq!(b.base % 256, 0);
    }

    #[test]
    fn addresses_depend_only_on_the_devices_own_allocations() {
        let mut g1 = gpu();
        let mut g2 = gpu();
        let a1 = g1.alloc::<u32>(10, 0);
        let _other = g2.alloc::<f64>(1000, 0.0);
        let b1 = g1.alloc::<u8>(3, 0);
        let mut g3 = gpu();
        let a3 = g3.alloc::<u32>(10, 0);
        let b3 = g3.alloc::<u8>(3, 0);
        assert_eq!(a1.base, FIRST_BASE);
        assert_eq!((a1.base, b1.base), (a3.base, b3.base));
    }

    #[test]
    fn addresses_scale_with_element_size() {
        let mut g = gpu();
        let a = g.alloc::<f64>(10, 0.0);
        assert_eq!(a.addr(3) - a.addr(0), 24);
        let b = g.alloc::<u32>(10, 0);
        assert_eq!(b.addr(3) - b.addr(0), 12);
    }

    #[test]
    fn host_accessors_round_trip() {
        let buf = gpu().upload(vec![1u32, 2, 3]);
        assert_eq!(buf.host_get(1), 2);
        buf.host_set(1, 9);
        assert_eq!(buf.to_vec(), [1, 9, 3]);
        buf.fill(0);
        assert_eq!(buf.to_vec(), [0, 0, 0]);
        buf.copy_from_slice(&[4, 5, 6]);
        assert_eq!(buf.to_vec(), [4, 5, 6]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    fn atomic_views_share_storage_with_plain_access() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(4, 7);
        buf.atomic(2).fetch_add(5, Ordering::Relaxed);
        assert_eq!(buf.host_get(2), 12);
        buf.host_set(2, 100);
        assert_eq!(buf.atomic(2).load(Ordering::Relaxed), 100);

        let fb = g.alloc::<f64>(2, 1.5);
        let bits = fb.atomic_bits(0).load(Ordering::Relaxed);
        assert_eq!(f64::from_bits(bits), 1.5);
        fb.atomic_bits(0)
            .store(2.25f64.to_bits(), Ordering::Relaxed);
        assert_eq!(fb.host_get(0), 2.25);
    }

    #[test]
    fn buffers_are_sync_and_concurrent_atomics_total_correctly() {
        let buf = gpu().alloc::<u32>(8, 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..8 {
                        for _ in 0..1000 {
                            buf.atomic(i).fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(buf.to_vec(), [4000u32; 8]);
    }
}
