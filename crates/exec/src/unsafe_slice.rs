//! Shared-mutable slice views for disjoint parallel writes.
//!
//! Scatter-style kernels (radix sort, compaction, per-block scans) write to
//! provably disjoint indices from multiple threads. Rust's borrow checker
//! cannot see the disjointness through our `Fn(Range<usize>)` task closures,
//! so this module provides a minimal unsafe escape hatch with the safety
//! contract concentrated in one place.

use std::cell::UnsafeCell;

/// A slice that may be written concurrently at **disjoint** indices.
pub struct UnsafeSlice<'a, T> {
    slice: &'a [UnsafeCell<T>],
}

// SAFETY: all access goes through `unsafe` methods whose contract requires
// the caller to guarantee disjointness; the wrapper itself adds no aliasing.
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
// SAFETY: shared references only hand out data through the same
// caller-guaranteed-disjoint methods, so cross-thread sharing adds no
// access the Send impl above did not already justify.
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        let ptr = slice as *mut [T] as *const [UnsafeCell<T>];
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // slice layouts match, and the exclusive borrow we hold makes the
        // reinterpreted shared view the only live path to the data.
        let cells = unsafe { &*ptr };
        Self { slice: cells }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.slice.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    ///
    /// No other thread may read or write `index` concurrently.
    #[inline(always)]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.slice.len());
        // SAFETY: the debug-checked bound plus the caller's exclusive claim
        // on `index` make the unchecked access and the write race-free.
        unsafe { *self.slice.get_unchecked(index).get() = value };
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    ///
    /// No other thread may write `index` concurrently.
    #[inline(always)]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.slice.len());
        // SAFETY: in-bounds per the debug-checked assert; no concurrent
        // writer per the caller's contract.
        unsafe { *self.slice.get_unchecked(index).get() }
    }

    /// Returns a mutable reference to element `index`.
    ///
    /// # Safety
    ///
    /// No other thread may access `index` while the reference lives.
    #[expect(clippy::mut_from_ref, reason = "exclusive per the caller's contract")]
    #[inline(always)]
    pub unsafe fn get_mut(&self, index: usize) -> &mut T {
        debug_assert!(index < self.slice.len());
        // SAFETY: in-bounds per the debug-checked assert; the caller
        // guarantees the reference is the only live access to `index`.
        unsafe { &mut *self.slice.get_unchecked(index).get() }
    }

    /// Returns a mutable sub-slice for `range`.
    ///
    /// # Safety
    ///
    /// No other thread may access any index in `range` while the slice lives.
    #[expect(clippy::mut_from_ref, reason = "exclusive per the caller's contract")]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.slice.len());
        let base = self.slice.as_ptr() as *mut T;
        // SAFETY: `range` is in bounds of the backing slice, so the offset
        // pointer and length describe live memory; the caller guarantees no
        // other access overlaps the range while the reborrow lives.
        unsafe { std::slice::from_raw_parts_mut(base.add(range.start), range.end - range.start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn disjoint_parallel_writes_land() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1000];
        {
            let view = UnsafeSlice::new(&mut data);
            let cursor = AtomicUsize::new(0);
            pool.broadcast(&|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 1000 {
                    break;
                }
                // SAFETY: the atomic cursor hands out each index exactly once.
                unsafe { view.write(i, i * 3) };
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }
}
