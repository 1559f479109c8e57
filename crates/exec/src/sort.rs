//! Stable parallel merge sort.
//!
//! The comparison sort for keys that do not pack into one `u64` word:
//! Kruskal's weighted edges (`pandora-mst`'s `kruskal.rs`). PANDORA's own
//! two sorts, the canonical edge order and the chain sort, run on
//! [`crate::radix`]; the canonical order uses this sort only for runs of
//! equal weights, which it orders by their endpoints.
//! Chunks are sorted in parallel with the standard library's stable sort,
//! then merged pairwise in rounds; each merge is performed by a single
//! task, pairs run in parallel.

use crate::trace::KernelKind;
use crate::{ExecCtx, UnsafeSlice};

/// Sorts `data` stably by the key function, in parallel.
///
/// ```
/// use pandora_exec::{sort::par_sort_by_key, ExecCtx};
///
/// let ctx = ExecCtx::threads();
/// let mut data = vec![(3, 'c'), (1, 'a'), (2, 'b')];
/// par_sort_by_key(&ctx, &mut data, |&(k, _)| k);
/// assert_eq!(data, vec![(1, 'a'), (2, 'b'), (3, 'c')]);
/// ```
pub fn par_sort_by_key<T, K, F>(ctx: &ExecCtx, data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    ctx.record(
        KernelKind::MergeSort,
        n as u64,
        (2 * n * std::mem::size_of::<T>()) as u64,
    );
    if ctx.is_serial() || n < 8192 {
        data.sort_by_key(|a| key(a));
        return;
    }

    let lanes = ctx.lanes();
    let n_runs = (lanes * 4).next_power_of_two();
    let run_len = n.div_ceil(n_runs);

    // Sort the runs in parallel (disjoint sub-slices).
    {
        let view = UnsafeSlice::new(data);
        let key_ref = &key;
        ctx.for_each(n_runs, 1, |r| {
            let start = r * run_len;
            if start >= n {
                return;
            }
            let end = (start + run_len).min(n);
            // SAFETY: runs are disjoint index ranges.
            let run = unsafe { view.slice_mut(start..end) };
            run.sort_by_key(|a| key_ref(a));
        });
    }

    // Merge rounds, ping-ponging between `data` and an aux buffer.
    let mut aux: Vec<T> = data.to_vec();
    let mut width = run_len;
    let mut src_is_data = true;
    while width < n {
        let n_pairs = n.div_ceil(2 * width);
        {
            let data_view = UnsafeSlice::new(data);
            let aux_view = UnsafeSlice::new(&mut aux);
            let key_ref = &key;
            ctx.for_each(n_pairs, 1, |p| {
                let lo = p * 2 * width;
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                // SAFETY: pair `p` owns [lo, hi) in both buffers.
                unsafe {
                    let (src, dst) = if src_is_data {
                        (&data_view, &aux_view)
                    } else {
                        (&aux_view, &data_view)
                    };
                    merge_into(src, dst, lo, mid, hi, key_ref);
                }
            });
        }
        src_is_data = !src_is_data;
        width *= 2;
    }

    if !src_is_data {
        // Result currently lives in `aux`; copy back in parallel.
        let data_view = UnsafeSlice::new(data);
        let aux_ref = &aux;
        ctx.for_each_chunk(n, 16 * 1024, |range| {
            for i in range {
                // SAFETY: chunks are disjoint.
                unsafe { data_view.write(i, aux_ref[i]) };
            }
        });
    }
}

/// Merges `src[lo..mid]` and `src[mid..hi]` (each sorted) into `dst[lo..hi]`.
///
/// # Safety
///
/// The caller must own `[lo, hi)` of both views exclusively.
unsafe fn merge_into<T, K, F>(
    src: &UnsafeSlice<'_, T>,
    dst: &UnsafeSlice<'_, T>,
    lo: usize,
    mid: usize,
    hi: usize,
    key: &F,
) where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut i = lo;
    let mut j = mid;
    let mut out = lo;
    while i < mid && j < hi {
        // SAFETY: `i < mid <= hi` and `j < hi`, both inside the
        // caller-owned `[lo, hi)` of `src`.
        let (a, b) = unsafe { (src.read(i), src.read(j)) };
        // `<=` keeps the merge stable.
        if key(&a) <= key(&b) {
            // SAFETY: `out` advances once per consumed element, so it stays
            // inside the caller-owned `[lo, hi)` of `dst`.
            unsafe { dst.write(out, a) };
            i += 1;
        } else {
            // SAFETY: as above — `out < hi` while elements remain.
            unsafe { dst.write(out, b) };
            j += 1;
        }
        out += 1;
    }
    while i < mid {
        // SAFETY: `i` and `out` remain inside the caller-owned `[lo, hi)`.
        unsafe { dst.write(out, src.read(i)) };
        i += 1;
        out += 1;
    }
    while j < hi {
        // SAFETY: `j` and `out` remain inside the caller-owned `[lo, hi)`.
        unsafe { dst.write(out, src.read(j)) };
        j += 1;
        out += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::Arc;

    fn ctxs() -> Vec<ExecCtx> {
        vec![
            ExecCtx::serial(),
            ExecCtx::on_pool(Arc::new(ThreadPool::new(4))),
        ]
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sorts_like_std() {
        for ctx in ctxs() {
            for n in [0usize, 1, 2, 1000, 8192, 100_003] {
                let mut state = 0x9E3779B97F4A7C15u64 ^ n as u64;
                let mut data: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 1000).collect();
                let mut expect = data.clone();
                expect.sort();
                par_sort_by_key(&ctx, &mut data, |&x| x);
                assert_eq!(data, expect, "n={n}");
            }
        }
    }

    #[test]
    fn stability_preserved() {
        // Sort (key, original_index) pairs by key only; equal keys must keep
        // their input order.
        for ctx in ctxs() {
            let n = 50_000usize;
            let mut state = 42u64;
            let mut data: Vec<(u32, u32)> = (0..n)
                .map(|i| ((xorshift(&mut state) % 16) as u32, i as u32))
                .collect();
            par_sort_by_key(&ctx, &mut data, |&(k, _)| k);
            for w in data.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "stability violated");
                }
            }
        }
    }

    #[test]
    fn already_sorted_and_reversed() {
        for ctx in ctxs() {
            let mut asc: Vec<u32> = (0..30_000).collect();
            par_sort_by_key(&ctx, &mut asc, |&x| x);
            assert!(asc.windows(2).all(|w| w[0] <= w[1]));
            let mut desc: Vec<u32> = (0..30_000).rev().collect();
            par_sort_by_key(&ctx, &mut desc, |&x| x);
            assert!(desc.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
