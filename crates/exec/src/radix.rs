//! Parallel LSD radix sort of packed `u64` records by their high word.
//!
//! Sorting dominates PANDORA's runtime (the paper's Fig. 13 measures 67–85%
//! of CPU time in sorting) and is its most scalable phase (Fig. 12), so the
//! substrate provides a histogram/scan/scatter radix sort — the same
//! construction GPU sorting libraries use. It serves both of PANDORA's
//! sorts, the canonical edge sort (`SortedMst::from_edges`) and the final
//! chain sort; the comparison merge sort in [`crate::sort`] serves the
//! other sorts in the workspace.
//!
//! Both PANDORA sorts order packed records `(key << 32) | payload` whose
//! payload word needs no sorting of its own: it is an input index, or it
//! is already ascending. So the sort orders records by the high 32-bit
//! word only, and stably — records with equal keys keep their input order,
//! which is what makes the payload come out in order. That takes at most
//! four 8-bit digit passes instead of eight.
//!
//! Each pass computes per-chunk histograms in parallel, turns them into
//! per-(digit, chunk) offsets with one sequential scan over `256 × n_chunks`
//! counters (digit-major so the sort stays stable), and scatters in
//! parallel. A pass whose digit column is constant is skipped after its
//! histogram: PANDORA's chain keys leave the top byte empty, and positive
//! edge weights share their sign and most of their exponent. The trace
//! records what runs: every pass's histogram read as a
//! [`KernelKind::Reduce`], and a [`KernelKind::RadixPass`] only for the
//! scatters that run. A serial context runs the same passes on one lane, so
//! serial and threaded contexts trace the same kernels. Below
//! `SEQ_THRESHOLD` records a stable standard-library sort is faster than
//! the passes and runs instead.

use crate::trace::KernelKind;
use crate::{ExecCtx, UnsafeSlice};

const RADIX_BITS: u32 = 8;
const RADIX_SIZE: usize = 1 << RADIX_BITS; // 256
const SEQ_THRESHOLD: usize = 16 * 1024;

/// Sorts `records` ascending by their high 32-bit word, stably.
///
/// Records with equal high words keep their input order, so the low word
/// is never compared: when the caller writes an input index there, or any
/// payload that is already ascending, the result is also sorted by the
/// whole `u64`.
///
/// # Panics
///
/// Panics if there are more than `u32::MAX` records.
///
/// ```
/// use pandora_exec::{radix::par_radix_sort_by_high_word, ExecCtx};
///
/// let mut records = vec![(2u64 << 32) | 9, (1 << 32) | 7, (2 << 32) | 3];
/// par_radix_sort_by_high_word(&ExecCtx::threads(), &mut records);
/// assert_eq!(records, vec![(1 << 32) | 7, (2 << 32) | 9, (2 << 32) | 3]);
/// ```
pub fn par_radix_sort_by_high_word(ctx: &ExecCtx, records: &mut [u64]) {
    let n = records.len();
    if n < SEQ_THRESHOLD {
        ctx.record(KernelKind::MergeSort, n as u64, (n * 8 * 2) as u64);
        records.sort_by_key(|&r| r >> 32);
        return;
    }
    // The scatter offsets are u32 counters; the unchecked writes rely on
    // them not wrapping.
    assert!(
        u32::try_from(n).is_ok(),
        "radix sort of {n} records exceeds u32 offsets"
    );
    let n_chunks = (ctx.lanes() * 4).min(n.div_ceil(1024));
    let mut hist = vec![0u32; n_chunks * RADIX_SIZE];
    let mut aux = vec![0u64; n];
    // Ping-pong between the two buffers, then copy back so the sorted
    // records end in the caller's buffer.
    let mut in_records = true;
    for shift in (32..64).step_by(RADIX_BITS as usize) {
        let moved = if in_records {
            radix_pass(ctx, records, &mut aux, &mut hist, shift)
        } else {
            radix_pass(ctx, &aux, records, &mut hist, shift)
        };
        in_records ^= moved;
    }
    if !in_records {
        records.copy_from_slice(&aux);
    }
}

/// One LSD pass: distributes `src` into `dst` stably by the digit at
/// `shift`, over as many chunks as `hist` has rows of `RADIX_SIZE`.
///
/// Returns `false`, leaving `dst` untouched, when every record has the
/// same digit, i.e. when the pass would be the identity permutation.
fn radix_pass(ctx: &ExecCtx, src: &[u64], dst: &mut [u64], hist: &mut [u32], shift: u32) -> bool {
    let n = src.len();
    let n_chunks = hist.len() / RADIX_SIZE;
    let chunk = n.div_ceil(n_chunks);
    let chunk_of = |c: usize| &src[(c * chunk).min(n)..((c + 1) * chunk).min(n)];
    let digit = |r: u64| (r >> shift) as usize & (RADIX_SIZE - 1);

    // Per-chunk histograms: slot (c, d) counts chunk c's records with digit d.
    ctx.record(KernelKind::Reduce, n as u64, (n * 8) as u64);
    hist.fill(0);
    {
        let hist_view = UnsafeSlice::new(&mut *hist);
        ctx.run_chunks(n_chunks, 1, |chunks| {
            for c in chunks {
                // SAFETY: histogram row c is written by chunk c alone.
                let counts = unsafe { hist_view.slice_mut(c * RADIX_SIZE..(c + 1) * RADIX_SIZE) };
                count_digits(chunk_of(c), shift, counts);
            }
        });
    }

    // Skip the identity pass: one digit holds every record.
    let digit_total = |d: usize| -> usize {
        (0..n_chunks)
            .map(|c| hist[c * RADIX_SIZE + d] as usize)
            .sum()
    };
    if (0..RADIX_SIZE).any(|d| digit_total(d) == n) {
        return false;
    }

    // Digit-major exclusive scan over (digit, chunk) counters → offsets.
    let mut running = 0u32;
    for d in 0..RADIX_SIZE {
        for c in 0..n_chunks {
            let slot = &mut hist[c * RADIX_SIZE + d];
            let count = *slot;
            *slot = running;
            running += count;
        }
    }

    // Scatter.
    ctx.record(KernelKind::RadixPass, n as u64, (n * 8 * 2) as u64);
    let dst_view = UnsafeSlice::new(dst);
    let hist = &*hist;
    ctx.run_chunks(n_chunks, 1, |chunks| {
        for c in chunks {
            let mut offsets = [0u32; RADIX_SIZE];
            offsets.copy_from_slice(&hist[c * RADIX_SIZE..(c + 1) * RADIX_SIZE]);
            for &r in chunk_of(c) {
                let slot = &mut offsets[digit(r)];
                // SAFETY: the digit-major offsets give every (digit, chunk)
                // pair a disjoint destination range, so each slot receives
                // exactly one record across all chunks.
                unsafe { dst_view.write(*slot as usize, r) };
                *slot += 1;
            }
        }
    });
    true
}

/// Adds the digit counts of `records` at `shift` to `counts`.
///
/// Four interleaved counter rows keep runs of equal digits from
/// serializing on one counter; near-constant digit columns (the top byte of
/// chain keys and of positive weights) are made of such runs.
fn count_digits(records: &[u64], shift: u32, counts: &mut [u32]) {
    let digit = |r: u64| (r >> shift) as usize & (RADIX_SIZE - 1);
    let mut rows = [[0u32; RADIX_SIZE]; 4];
    let mut quads = records.chunks_exact(4);
    for q in &mut quads {
        rows[0][digit(q[0])] += 1;
        rows[1][digit(q[1])] += 1;
        rows[2][digit(q[2])] += 1;
        rows[3][digit(q[3])] += 1;
    }
    for &r in quads.remainder() {
        rows[0][digit(r)] += 1;
    }
    for (d, count) in counts.iter_mut().enumerate() {
        *count += rows[0][d] + rows[1][d] + rows[2][d] + rows[3][d];
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

    /// The reference order: a stable sort by the high word.
    fn stable_by_high_word(records: &[u64]) -> Vec<u64> {
        let mut expect = records.to_vec();
        expect.sort_by_key(|&r| r >> 32);
        expect
    }

    #[test]
    fn sorts_by_high_word_like_a_stable_std_sort() {
        for ctx in ctxs() {
            for n in [0usize, 1, 100, 16 * 1024 - 1, 16 * 1024, 100_000] {
                let mut state = 7u64 + n as u64;
                let mut records: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
                let expect = stable_by_high_word(&records);
                par_radix_sort_by_high_word(&ctx, &mut records);
                assert_eq!(records, expect, "n={n}");
            }
        }
    }

    #[test]
    fn equal_keys_keep_their_payload_order() {
        // 257 distinct keys over 70k records: every key repeats ~270 times
        // with payloads in scrambled order, which only a stable sort keeps.
        for ctx in ctxs() {
            let n = 70_000usize;
            let mut state = 1234u64;
            let mut records: Vec<u64> = (0..n)
                .map(|_| ((xorshift(&mut state) % 257) << 32) | (xorshift(&mut state) >> 32))
                .collect();
            let expect = stable_by_high_word(&records);
            par_radix_sort_by_high_word(&ctx, &mut records);
            assert_eq!(records, expect);
        }
    }

    #[test]
    fn all_equal_keys_are_left_in_place() {
        for ctx in ctxs() {
            let mut records: Vec<u64> = (0..50_000u64).rev().map(|i| (42 << 32) | i).collect();
            let expect = records.clone();
            par_radix_sort_by_high_word(&ctx, &mut records);
            assert_eq!(records, expect);
        }
    }

    #[test]
    fn trace_records_only_the_scatters_that_run() {
        // Keys below 2^10 leave the top two high-word digits constant: all
        // four histograms are read, two scatters run.
        let n = 80_000usize;
        let mut state = 99u64;
        let template: Vec<u64> = (0..n)
            .map(|i| ((xorshift(&mut state) & 0x3FF) << 32) | i as u64)
            .collect();
        let mut totals = Vec::new();
        for ctx in ctxs() {
            let (ctx, tracer) = ctx.with_tracing();
            let mut records = template.clone();
            par_radix_sort_by_high_word(&ctx, &mut records);
            assert_eq!(records, stable_by_high_word(&template));
            let trace = tracer.snapshot();
            let count = |kind| trace.events.iter().filter(|e| e.kind == kind).count();
            assert_eq!(count(KernelKind::Reduce), 4, "one histogram per digit");
            assert_eq!(
                count(KernelKind::RadixPass),
                2,
                "one scatter per live digit"
            );
            assert_eq!(trace.len(), 6, "nothing else is traced");
            let bytes: u64 = trace.events.iter().map(|e| e.bytes).sum();
            let elements: u64 = trace.events.iter().map(|e| e.n).sum();
            assert_eq!((elements, bytes), (6 * n as u64, 8 * n as u64 * 8));
            totals.push((elements, bytes));
        }
        assert_eq!(totals[0], totals[1], "serial and threaded trace alike");
    }
}
