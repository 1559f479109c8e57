//! Kernel tracing.
//!
//! Every parallel primitive invoked through an [`crate::ExecCtx`] with
//! tracing enabled appends a [`KernelEvent`] describing *what the hardware
//! would have to do*: the kernel kind, the number of elements processed and
//! an estimate of the bytes moved. A trace of a real algorithm run can then
//! be replayed through a [`crate::device::DeviceModel`] to project the run
//! onto hardware that is not present (the paper's MI250X / A100 / 64-core
//! EPYC), preserving the exact kernel sequence and data volumes.

use parking_lot::Mutex;
use std::sync::Arc;

/// The kind of parallel kernel an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Embarrassingly parallel loop over `n` elements.
    For,
    /// Parallel reduction over `n` elements.
    Reduce,
    /// Parallel prefix sum over `n` elements.
    Scan,
    /// The scatter of one parallel radix sort pass; the pass's histogram
    /// read is traced as a [`KernelKind::Reduce`].
    RadixPass,
    /// Comparison-based parallel merge sort over `n` elements.
    MergeSort,
    /// Irregular gather/scatter of `n` elements (random access dominated).
    Gather,
    /// Lock-free union–find unions over `n` edges (pointer jumping).
    DsuUnion,
    /// Union–find find/compress over `n` elements.
    DsuFind,
    /// Spatial-tree traversal work: `n` query–node visits.
    TreeTraverse,
    /// Spatial-tree construction over `n` points.
    TreeBuild,
    /// Inherently sequential loop over `n` elements (single lane).
    SeqLoop,
}

impl KernelKind {
    /// All kinds, for iteration in the device model tables.
    pub const ALL: [KernelKind; 11] = [
        KernelKind::For,
        KernelKind::Reduce,
        KernelKind::Scan,
        KernelKind::RadixPass,
        KernelKind::MergeSort,
        KernelKind::Gather,
        KernelKind::DsuUnion,
        KernelKind::DsuFind,
        KernelKind::TreeTraverse,
        KernelKind::TreeBuild,
        KernelKind::SeqLoop,
    ];
}

/// One recorded kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct KernelEvent {
    /// What the kernel does.
    pub kind: KernelKind,
    /// Elements processed.
    pub n: u64,
    /// Estimated bytes of memory traffic (reads + writes).
    pub bytes: u64,
    /// Phase label active when the kernel was recorded.
    pub phase: &'static str,
}

/// Default phase label for events recorded outside any explicit phase.
pub const UNPHASED: &str = "other";

/// A thread-safe collector of kernel events.
#[derive(Debug)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

#[derive(Debug)]
struct TracerInner {
    events: Vec<KernelEvent>,
    phase: &'static str,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(TracerInner {
                events: Vec::new(),
                phase: UNPHASED,
            }),
        })
    }

    /// Sets the phase label attached to subsequently recorded events.
    pub fn set_phase(&self, phase: &'static str) {
        self.inner.lock().phase = phase;
    }

    /// Records one kernel event.
    pub fn record(&self, kind: KernelKind, n: u64, bytes: u64) {
        let mut inner = self.inner.lock();
        let phase = inner.phase;
        inner.events.push(KernelEvent {
            kind,
            n,
            bytes,
            phase,
        });
    }

    /// Takes a snapshot of all recorded events.
    pub fn snapshot(&self) -> Trace {
        Trace {
            events: self.inner.lock().events.clone(),
        }
    }

    /// Clears all recorded events and resets the phase.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.phase = UNPHASED;
    }
}

/// An immutable snapshot of recorded kernel events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The events, in recording order.
    pub events: Vec<KernelEvent>,
}

impl Trace {
    /// Number of recorded kernel launches.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total elements processed across all events of a kind.
    pub fn total_n(&self, kind: KernelKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.n)
            .sum()
    }

    /// The distinct phase labels, in first-appearance order.
    pub fn phases(&self) -> Vec<&'static str> {
        let mut phases = Vec::new();
        for e in &self.events {
            if !phases.contains(&e.phase) {
                phases.push(e.phase);
            }
        }
        phases
    }

    /// Restricts the trace to events from one phase.
    pub fn phase(&self, phase: &str) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.phase == phase)
                .collect(),
        }
    }

    /// Scales every event's element count and byte volume by `factor`,
    /// keeping the kernel sequence fixed.
    ///
    /// Used to project a feasible-scale run onto the paper's dataset sizes
    /// (e.g. 40 k → 37 M points). The kernel *count* is held constant, which
    /// slightly underestimates large-n work (a few extra contraction levels,
    /// ~log₂ of the factor) — noted in EXPERIMENTS.md.
    pub fn scaled(&self, factor: f64) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .map(|e| KernelEvent {
                    kind: e.kind,
                    n: (e.n as f64 * factor).round() as u64,
                    bytes: (e.bytes as f64 * factor).round() as u64,
                    phase: e.phase,
                })
                .collect(),
        }
    }

    /// Per-kind totals of elements processed, for calibration.
    pub fn kind_totals(&self) -> Vec<(KernelKind, u64, usize)> {
        KernelKind::ALL
            .iter()
            .map(|&k| {
                let total: u64 = self
                    .events
                    .iter()
                    .filter(|e| e.kind == k)
                    .map(|e| e.n)
                    .sum();
                let count = self.events.iter().filter(|e| e.kind == k).count();
                (k, total, count)
            })
            .filter(|&(_, total, count)| total > 0 || count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_with_phases() {
        let tracer = Tracer::new();
        tracer.record(KernelKind::For, 100, 800);
        tracer.set_phase("sort");
        tracer.record(KernelKind::RadixPass, 100, 1600);
        let trace = tracer.snapshot();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].phase, UNPHASED);
        assert_eq!(trace.events[1].phase, "sort");
        assert_eq!(trace.total_n(KernelKind::RadixPass), 100);
        assert_eq!(trace.phases(), vec![UNPHASED, "sort"]);
        assert_eq!(trace.phase("sort").len(), 1);
    }

    #[test]
    fn reset_clears_events() {
        let tracer = Tracer::new();
        tracer.record(KernelKind::Scan, 10, 80);
        tracer.reset();
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn scaled_multiplies_counts_not_launches() {
        let tracer = Tracer::new();
        tracer.record(KernelKind::For, 1_000, 8_000);
        tracer.record(KernelKind::Scan, 500, 4_000);
        let scaled = tracer.snapshot().scaled(10.0);
        assert_eq!(scaled.len(), 2);
        assert_eq!(scaled.events[0].n, 10_000);
        assert_eq!(scaled.events[0].bytes, 80_000);
        assert_eq!(scaled.events[1].n, 5_000);
    }

    #[test]
    fn kind_totals_aggregate() {
        let tracer = Tracer::new();
        tracer.record(KernelKind::For, 10, 80);
        tracer.record(KernelKind::For, 20, 160);
        tracer.record(KernelKind::Scan, 5, 40);
        let totals = tracer.snapshot().kind_totals();
        let for_entry = totals
            .iter()
            .find(|(k, _, _)| *k == KernelKind::For)
            .unwrap();
        assert_eq!((for_entry.1, for_entry.2), (30, 2));
    }
}
