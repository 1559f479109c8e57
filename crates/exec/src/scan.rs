//! Parallel exclusive prefix sums (scans).
//!
//! The paper's tree-contraction step is "equivalent to a prefix sum on an
//! array with 2n entries" (§4.2); every compaction in the pipeline (α-edge
//! filtering, supervertex renumbering, chain segmentation) is built on the
//! two-pass blocked exclusive scan implemented here.

use crate::trace::KernelKind;
use crate::{ExecCtx, UnsafeSlice};

/// Element types that can be scanned.
pub trait ScanNum: Copy + Send + Sync {
    /// Additive identity.
    const ZERO: Self;
    /// Associative addition.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_scan_num {
    ($($t:ty),*) => {$(
        impl ScanNum for $t {
            const ZERO: Self = 0 as $t;
            #[inline(always)]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}
impl_scan_num!(u32, u64, usize, i64, f32, f64);

/// Minimum block size for the parallel scan; below `4 * BLOCK_MIN` total
/// elements the sequential scan is used directly.
const BLOCK_MIN: usize = 4096;

/// Exclusive prefix sum of `xs` in place; returns the total.
pub fn exclusive_scan_in_place<T: ScanNum>(ctx: &ExecCtx, xs: &mut [T]) -> T {
    let n = xs.len();
    ctx.record(
        KernelKind::Scan,
        n as u64,
        (2 * n * std::mem::size_of::<T>()) as u64,
    );
    if ctx.is_serial() || n < 4 * BLOCK_MIN {
        return seq_exclusive_scan(xs);
    }
    let lanes = ctx.lanes();
    let block = (n.div_ceil(lanes * 4)).max(BLOCK_MIN);
    let nb = n.div_ceil(block);

    // Pass 1: per-block sums.
    let mut sums = vec![T::ZERO; nb];
    {
        let xs_view = UnsafeSlice::new(xs);
        let sums_view = UnsafeSlice::new(&mut sums);
        ctx.for_each(nb, 1, |b| {
            let mut acc = T::ZERO;
            let start = b * block;
            let end = (start + block).min(n);
            for i in start..end {
                // SAFETY: read-only access within this block; no concurrent
                // writer exists during pass 1.
                acc = acc.add(unsafe { xs_view.read(i) });
            }
            // SAFETY: block ids are distinct per task.
            unsafe { sums_view.write(b, acc) };
        });
    }

    // Pass 2: sequential scan of the (small) block sums.
    let total = seq_exclusive_scan(&mut sums);

    // Pass 3: per-block exclusive scan with the block offset.
    {
        let xs_view = UnsafeSlice::new(xs);
        let sums_ref = &sums;
        ctx.for_each(nb, 1, |b| {
            let mut running = sums_ref[b];
            let start = b * block;
            let end = (start + block).min(n);
            for i in start..end {
                // SAFETY: blocks are disjoint index ranges.
                unsafe {
                    let x = xs_view.read(i);
                    xs_view.write(i, running);
                    running = running.add(x);
                }
            }
        });
    }
    total
}

/// Sequential exclusive scan; returns the total.
pub fn seq_exclusive_scan<T: ScanNum>(xs: &mut [T]) -> T {
    let mut running = T::ZERO;
    for x in xs.iter_mut() {
        let v = *x;
        *x = running;
        running = running.add(v);
    }
    running
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

    #[test]
    fn exclusive_scan_matches_oracle() {
        for ctx in ctxs() {
            for n in [0usize, 1, 7, 4095, 4096, 50_000] {
                let xs: Vec<u64> = (0..n).map(|i| (i % 13) as u64).collect();
                let mut got = xs.clone();
                let total = exclusive_scan_in_place(&ctx, &mut got);
                let mut expect = xs.clone();
                let expect_total = seq_exclusive_scan(&mut expect);
                assert_eq!(total, expect_total, "n={n}");
                assert_eq!(got, expect, "n={n}");
            }
        }
    }

    #[test]
    fn exclusive_scan_f32() {
        let ctx = ExecCtx::serial();
        let mut xs = vec![0.5f32, 1.5, 2.0];
        let total = exclusive_scan_in_place(&ctx, &mut xs);
        assert_eq!(xs, vec![0.0, 0.5, 2.0]);
        assert_eq!(total, 4.0);
    }
}
