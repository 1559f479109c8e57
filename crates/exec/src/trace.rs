//! Kernel tracing.
//!
//! Every parallel primitive invoked through an [`crate::ExecCtx`] with
//! tracing enabled appends a [`KernelEvent`]: the kernel kind, the number
//! of elements processed, an estimate of the bytes moved, and the phase
//! label active when it ran. Summed per phase or per kind, the events are
//! work counts, exact and repeatable on a serial context; the benchmark's
//! `trace.*` metrics and the work-bound tests read them.

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
        assert_eq!(
            (trace.events[1].kind, trace.events[1].n),
            (KernelKind::RadixPass, 100)
        );
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
}
