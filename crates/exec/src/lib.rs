//! # pandora-exec
//!
//! The performance-portable execution substrate underneath the PANDORA
//! reproduction — the role Kokkos plays in the paper's implementation.
//!
//! Everything the algorithms need is expressed through a small set of
//! primitives, exactly as the paper requires ("parallel loops, reductions
//! and prefix sums", §1):
//!
//! * [`ExecCtx::for_each`] / [`ExecCtx::for_each_chunk`] — parallel loops;
//! * [`ExecCtx::reduce`] — parallel reductions;
//! * [`scan`] — parallel exclusive prefix sums;
//! * [`sort::par_sort_by_key`] and [`radix`] — parallel sorts;
//! * [`dsu::AtomicDsu`] — the synchronization-free pointer-jumping
//!   union–find of Jaiganesh & Burtscher used by the paper for tree
//!   contraction;
//! * [`trace`] / [`device`] — kernel tracing and analytic device models used
//!   to project traced runs onto the paper's hardware (see
//!   `docs/ARCHITECTURE.md`, *The substrate*).
//!
//! An [`ExecCtx`] bundles an execution space (`Serial` or a shared
//! [`pool::ThreadPool`]) with an optional [`trace::Tracer`].

pub mod atomic;
pub mod counters;
pub mod device;
pub mod dsu;
pub mod latch;
pub mod partition;
pub mod pool;
pub mod radix;
pub mod scan;
pub mod scratch;
pub mod sort;
pub mod trace;
pub mod unsafe_slice;

mod par;

pub use par::DEFAULT_GRAIN;
pub use scratch::ScratchPool;
pub use unsafe_slice::UnsafeSlice;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use counters::RelaxedCounter;
use pool::ThreadPool;
use trace::{KernelKind, Tracer};

/// Where kernels execute.
#[derive(Clone)]
pub enum ExecSpace {
    /// Single-threaded execution on the calling thread.
    Serial,
    /// Fork–join execution on a shared thread pool.
    Threads(Arc<ThreadPool>),
}

/// An execution context: an execution space plus optional kernel tracing.
///
/// Cheap to clone; clones share the pool and the tracer.
#[derive(Clone)]
pub struct ExecCtx {
    space: ExecSpace,
    tracer: Option<Arc<Tracer>>,
}

impl ExecCtx {
    /// A serial context (useful for oracles and tests).
    pub fn serial() -> Self {
        Self {
            space: ExecSpace::Serial,
            tracer: None,
        }
    }

    /// A parallel context on the process-global pool.
    pub fn threads() -> Self {
        Self {
            space: ExecSpace::Threads(Arc::clone(pool::global_pool())),
            tracer: None,
        }
    }

    /// A parallel context on a caller-provided pool.
    pub fn on_pool(pool: Arc<ThreadPool>) -> Self {
        Self {
            space: ExecSpace::Threads(pool),
            tracer: None,
        }
    }

    /// Returns a copy of this context with tracing enabled, plus the tracer.
    pub fn with_tracing(&self) -> (Self, Arc<Tracer>) {
        let tracer = Tracer::new();
        (
            Self {
                space: self.space.clone(),
                tracer: Some(Arc::clone(&tracer)),
            },
            tracer,
        )
    }

    /// The tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Sets the phase label for subsequently traced kernels (no-op when
    /// tracing is disabled).
    pub fn set_phase(&self, phase: &'static str) {
        if let Some(t) = &self.tracer {
            t.set_phase(phase);
        }
    }

    /// Records a kernel event (no-op when tracing is disabled).
    #[inline]
    pub fn record(&self, kind: KernelKind, n: u64, bytes: u64) {
        if let Some(t) = &self.tracer {
            t.record(kind, n, bytes);
        }
    }

    /// Number of execution lanes (1 for serial contexts).
    pub fn lanes(&self) -> usize {
        match &self.space {
            ExecSpace::Serial => 1,
            ExecSpace::Threads(pool) => pool.lanes(),
        }
    }

    /// Whether this context runs serially.
    pub fn is_serial(&self) -> bool {
        matches!(self.space, ExecSpace::Serial)
    }

    /// Runs `f(chunk_range)` over `0..n` in parallel chunks of at least
    /// `grain` elements, distributed dynamically over the lanes.
    pub fn for_each_chunk<F: Fn(std::ops::Range<usize>) + Sync>(
        &self,
        n: usize,
        grain: usize,
        f: F,
    ) {
        self.for_each_chunk_traced(n, grain, KernelKind::For, (n * 8) as u64, f);
    }

    /// [`ExecCtx::for_each_chunk`] with an explicit trace classification.
    pub fn for_each_chunk_traced<F: Fn(std::ops::Range<usize>) + Sync>(
        &self,
        n: usize,
        grain: usize,
        kind: KernelKind,
        bytes: u64,
        f: F,
    ) {
        self.record(kind, n as u64, bytes);
        self.run_chunks(n, grain, f);
    }

    /// [`ExecCtx::for_each_chunk`] for kernels whose work is known only
    /// once they have run: every call of `f` returns the `(elements,
    /// bytes)` it processed, and the sums are recorded as one event of
    /// `kind` after the loop. The sums do not depend on how the range is
    /// chunked when each element's work does not.
    pub fn for_each_chunk_counted<F: Fn(std::ops::Range<usize>) -> (u64, u64) + Sync>(
        &self,
        n: usize,
        grain: usize,
        kind: KernelKind,
        f: F,
    ) {
        let (elements, bytes) = (RelaxedCounter::new(), RelaxedCounter::new());
        self.run_chunks(n, grain, |range| {
            let (e, b) = f(range);
            elements.add(e);
            bytes.add(b);
        });
        // The loop has joined, so both sums are complete.
        self.record(kind, elements.get(), bytes.get());
    }

    /// Runs `f(block)` for every block in `0..blocks`, one block per task,
    /// and traces `blocks * per_block` elements: for owner loops, in which
    /// every block streams the same `per_block`-element input and keeps the
    /// part it owns.
    pub fn for_each_block_traced<F: Fn(usize) + Sync>(
        &self,
        blocks: usize,
        per_block: usize,
        kind: KernelKind,
        bytes: u64,
        f: F,
    ) {
        self.record(kind, (blocks * per_block) as u64, bytes);
        self.run_chunks(blocks, 1, |range| range.for_each(&f));
    }

    /// [`ExecCtx::for_each_chunk`] without a trace event, for kernels that
    /// trace their own work because their loop runs over blocks of it (a
    /// radix pass loops over chunks, but its kernel touches every record).
    pub(crate) fn run_chunks<F: Fn(std::ops::Range<usize>) + Sync>(
        &self,
        n: usize,
        grain: usize,
        f: F,
    ) {
        match &self.space {
            ExecSpace::Serial => {
                if n > 0 {
                    f(0..n)
                }
            }
            ExecSpace::Threads(pool) => {
                if n == 0 {
                    return;
                }
                let grain = grain.max(1);
                if n <= grain {
                    f(0..n);
                    return;
                }
                // Dynamic chunking: ~8 chunks per lane bounds scheduling
                // overhead while still load-balancing irregular work.
                let chunk = grain.max(n / (pool.lanes() * 8)).max(1);
                let cursor = AtomicUsize::new(0);
                pool.broadcast(&|_lane| loop {
                    // ORDERING: work-stealing cursor: the RMW dispenses disjoint chunks; task data is published by the broadcast join, not the cursor
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    f(start..(start + chunk).min(n));
                });
            }
        }
    }

    /// Runs `f(i)` for every `i` in `0..n` in parallel.
    #[inline]
    pub fn for_each<F: Fn(usize) + Sync>(&self, n: usize, grain: usize, f: F) {
        self.for_each_chunk(n, grain, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Parallel reduction: folds `0..n` into per-lane accumulators with
    /// `fold`, then combines them with `combine`.
    pub fn reduce<T, FoldF, CombineF>(
        &self,
        n: usize,
        grain: usize,
        identity: T,
        fold: FoldF,
        combine: CombineF,
    ) -> T
    where
        T: Send + Sync + Clone,
        FoldF: Fn(T, std::ops::Range<usize>) -> T + Sync,
        CombineF: Fn(T, T) -> T,
    {
        self.record(KernelKind::Reduce, n as u64, (n * 8) as u64);
        if n == 0 {
            return identity;
        }
        match &self.space {
            ExecSpace::Serial => fold(identity, 0..n),
            ExecSpace::Threads(pool) => {
                let grain = grain.max(1);
                if n <= grain {
                    return fold(identity, 0..n);
                }
                let chunk = grain.max(n / (pool.lanes() * 8)).max(1);
                let cursor = AtomicUsize::new(0);
                let partials = parking_lot::Mutex::new(Vec::with_capacity(pool.lanes()));
                pool.broadcast(&|_lane| {
                    let mut local = identity.clone();
                    let mut touched = false;
                    loop {
                        // ORDERING: work-stealing cursor: the RMW dispenses disjoint chunks; fold results travel through the mutex, not the cursor
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        local = fold(local, start..(start + chunk).min(n));
                        touched = true;
                    }
                    if touched {
                        partials.lock().push(local);
                    }
                });
                partials.into_inner().into_iter().fold(identity, combine)
            }
        }
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::threads()
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The pool and tracer internals are not informative; report the
        // execution shape (what debugging a serving structure needs).
        f.debug_struct("ExecCtx")
            .field("lanes", &self.lanes())
            .field("serial", &self.is_serial())
            .field("tracing", &self.tracer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn ctxs() -> Vec<ExecCtx> {
        vec![
            ExecCtx::serial(),
            ExecCtx::on_pool(Arc::new(ThreadPool::new(4))),
        ]
    }

    #[test]
    fn for_each_covers_all_indices_once() {
        for ctx in ctxs() {
            let n = 10_000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            ctx.for_each(n, 16, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_zero_and_one() {
        for ctx in ctxs() {
            ctx.for_each(0, 1, |_| panic!("must not run"));
            let hit = AtomicU64::new(0);
            ctx.for_each(1, 1024, |i| {
                assert_eq!(i, 0);
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hit.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn reduce_matches_closed_form() {
        for ctx in ctxs() {
            let n = 100_001usize;
            let sum = ctx.reduce(
                n,
                64,
                0u64,
                |acc, range| acc + range.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
        }
    }

    #[test]
    fn reduce_empty_returns_identity() {
        for ctx in ctxs() {
            let v = ctx.reduce(0, 64, 42u64, |acc, _| acc + 1, |a, b| a + b);
            assert_eq!(v, 42);
        }
    }

    #[test]
    fn tracing_records_kernels() {
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        ctx.set_phase("sort");
        ctx.for_each(10, 1, |_| {});
        let _ = ctx.reduce(10, 1, 0u32, |a, _| a, |a, _| a);
        let trace = tracer.snapshot();
        assert_eq!(trace.len(), 2);
        assert!(trace.events.iter().all(|e| e.phase == "sort"));
    }

    #[test]
    fn block_loop_runs_each_block_once_and_traces_every_stream() {
        for ctx in ctxs() {
            let (ctx, tracer) = ctx.with_tracing();
            for blocks in [0, 1, 3, 9] {
                let hits: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
                ctx.for_each_block_traced(blocks, 100, KernelKind::Gather, 7, |b| {
                    hits[b].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                let last = *tracer.snapshot().events.last().unwrap();
                assert_eq!(
                    (last.kind, last.n, last.bytes),
                    (KernelKind::Gather, blocks as u64 * 100, 7)
                );
            }
        }
    }

    #[test]
    fn counted_loop_records_the_work_its_chunks_report() {
        for ctx in ctxs() {
            let (ctx, tracer) = ctx.with_tracing();
            for n in [0usize, 1, 1000] {
                // Element i reports i elements and 2i bytes of work.
                ctx.for_each_chunk_counted(n, 16, KernelKind::TreeTraverse, |range| {
                    let elements = range.map(|i| i as u64).sum::<u64>();
                    (elements, 2 * elements)
                });
                let last = *tracer.snapshot().events.last().unwrap();
                let sum = (n as u64).saturating_sub(1) * n as u64 / 2;
                assert_eq!(
                    (last.kind, last.n, last.bytes),
                    (KernelKind::TreeTraverse, sum, 2 * sum)
                );
            }
        }
    }
}
