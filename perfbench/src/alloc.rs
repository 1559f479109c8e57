//! A counting global allocator. Counting is off except between [`start`]
//! and [`stop`], so the measured runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Relaxed: plain statistics that publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// the System allocator, which upholds the GlobalAlloc contract; the only
// addition is an atomic counter update, which cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller guarantees `layout` is valid; forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller guarantees `layout` is valid; forwarded as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by System for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by System for `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on; returns the `(allocations, bytes)` baseline to hand
/// to [`stop`].
pub fn start() -> (u64, u64) {
    let base = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ENABLED.store(true, Ordering::SeqCst);
    base
}

/// Turns counting off; returns the allocations made since `base`
/// (reallocations included) and the bytes they requested.
pub fn stop(base: (u64, u64)) -> (u64, u64) {
    ENABLED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst) - base.0,
        BYTES.load(Ordering::SeqCst) - base.1,
    )
}
