//! Atomic views over plain slices and order-preserving float↔int keys.
//!
//! Some kernels update an ordinary `Vec` from several lanes at once: the
//! α-split marks each vertex's `maxIncident` edge with a relaxed store, the
//! work-optimal splitter picks each component's top edge with `fetch_min`,
//! and Borůvka keeps each component's best candidate the same way.
//! [`as_atomic_u32`] and [`as_atomic_u64`] provide the in-place atomic
//! views. Radix sorting of `f32` edge weights uses the classic monotone bit
//! transforms in [`f32_to_ordered_u32`].

use std::sync::atomic::{AtomicU32, AtomicU64};

/// Reinterprets a mutable `u32` slice as atomics for the duration of a
/// parallel region.
///
/// Safe because `AtomicU32` has the same layout as `u32` and the exclusive
/// borrow guarantees no non-atomic access can overlap the returned view.
pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: AtomicU32 is #[repr(C, align(4))] with the same size as u32,
    // and the &mut borrow makes the aliasing exclusive.
    unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
}

/// Reinterprets a mutable `u64` slice as atomics (see [`as_atomic_u32`]).
pub fn as_atomic_u64(slice: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: as above, for u64/AtomicU64.
    unsafe { &*(slice as *mut [u64] as *const [AtomicU64]) }
}

/// Maps `f32` to `u32` such that the unsigned order of the keys equals the
/// total order of the floats (ascending; `-0.0 < +0.0`, NaN sorts last).
#[inline(always)]
pub fn f32_to_ordered_u32(x: f32) -> u32 {
    let bits = x.to_bits();
    // Flip all bits for negatives, just the sign for non-negatives.
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`f32_to_ordered_u32`].
#[inline(always)]
pub fn ordered_u32_to_f32(key: u32) -> f32 {
    let bits = if key & 0x8000_0000 != 0 {
        key & 0x7FFF_FFFF
    } else {
        !key
    };
    f32::from_bits(bits)
}

/// Descending variant: larger floats get smaller keys.
#[inline(always)]
pub fn f32_to_ordered_u32_desc(x: f32) -> u32 {
    !f32_to_ordered_u32(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn atomic_view_fetch_max() {
        let mut xs = vec![0u32; 8];
        {
            let view = as_atomic_u32(&mut xs);
            view[3].fetch_max(7, Ordering::Relaxed);
            view[3].fetch_max(4, Ordering::Relaxed);
        }
        assert_eq!(xs[3], 7);
    }

    #[test]
    fn float_key_order_matches_float_order() {
        let mut vals = vec![-1.0e30f32, -3.5, -0.0, 0.0, 1e-20, 1.0, 7.25, 3.4e38];
        let mut by_key = vals.clone();
        by_key.sort_by_key(|&x| f32_to_ordered_u32(x));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // -0.0 and 0.0 compare equal as floats; compare bit keys positionally
        // via total order instead.
        for (a, b) in by_key.iter().zip(vals.iter()) {
            assert!(a.total_cmp(b).is_eq() || (a == b));
        }
    }

    #[test]
    fn float_key_roundtrip() {
        for x in [-123.5f32, -0.0, 0.0, 1.5, 9e9] {
            let rt = ordered_u32_to_f32(f32_to_ordered_u32(x));
            assert_eq!(rt.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn desc_key_reverses_order() {
        assert!(f32_to_ordered_u32_desc(2.0) < f32_to_ordered_u32_desc(1.0));
        assert!(f32_to_ordered_u32_desc(-1.0) > f32_to_ordered_u32_desc(1.0));
    }
}
