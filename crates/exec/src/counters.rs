//! The workspace's designated home for relaxed-ordering statistics
//! counters.
//!
//! # Why this module exists
//!
//! `Ordering::Relaxed` is the right ordering for exactly one job: counters
//! whose *value* matters but whose *visibility relative to other data*
//! does not. Everything else — flags, handoffs, anything a reader uses to
//! infer that some other memory is initialised — needs stronger ordering,
//! and a stray `Relaxed` in such a site is a heisenbug. Rule PL004 (the
//! tier-1 test `tests/lint_policy.rs`) therefore requires an argued
//! `// ORDERING:` marker on every `Ordering::Relaxed` *except* in this
//! module; algorithmic uses (the union–find, the Borůvka min-edge flush,
//! work-stealing cursors) state their argument at the call site instead.
//!
//! # The audit contract
//!
//! Every counter built from [`RelaxedCounter`] satisfies all of:
//!
//! 1. **Exact-by-RMW.** The only writes are atomic read-modify-write ops
//!    (`fetch_add`/`fetch_sub`), so no increment is ever lost, regardless
//!    of ordering. Relaxed weakens *when* a value becomes visible, never
//!    *whether* the arithmetic is applied.
//! 2. **Reporting-only reads.** Readers use the value itself (a stats
//!    snapshot, a leak check at a quiescent point, a trace record) and
//!    never infer the state of *other* memory from it. No happens-before
//!    edge is derived from a counter.
//! 3. **Quiescent exactness where needed.** Counters that must read exact
//!    (the scratch pool's `outstanding` leak check) are only asserted at
//!    points where all writers have already joined through a barrier with
//!    its own synchronisation (pool `broadcast` join, `Mutex` unlock),
//!    which supplies the happens-before the counter itself does not.
//!
//! A counter that stops satisfying these — e.g. one a reader spins on to
//! detect completion — must move out of this module and take explicit
//! `Acquire`/`Release` orderings.

use std::sync::atomic::{AtomicU64, Ordering};

/// A statistics counter with relaxed memory ordering.
///
/// See the module docs for the audit contract every use must satisfy.
/// The ordering is deliberately not configurable: a counter that needs
/// anything stronger than `Relaxed` is not a statistics counter and does
/// not belong here.
#[derive(Debug, Default)]
pub struct RelaxedCounter(AtomicU64);

impl RelaxedCounter {
    /// A counter starting at zero (usable in `static` position).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`. The RMW is atomic, so concurrent adds never lose counts.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts `n`, returning the previous value (wrapping below zero,
    /// like the underlying atomic — callers pairing adds and subs can
    /// `debug_assert!` on the returned value to catch imbalance).
    #[inline]
    pub fn sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Ordering::Relaxed)
    }

    /// Current value. Exact with respect to every write that has already
    /// been synchronised-with (see module docs); approximate while writers
    /// are still running, which is all a stats read needs.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Exclusive read: `&mut self` proves no writer is running, so the
    /// value is exact without any atomic ordering at all.
    #[inline]
    pub fn get_mut(&mut self) -> u64 {
        *self.0.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_across_threads() {
        let c = RelaxedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        // The thread joins supply the happens-before; the RMWs supply the
        // arithmetic exactness.
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn sub_returns_previous_value() {
        let c = RelaxedCounter::new();
        c.add(3);
        assert_eq!(c.sub(1), 3);
        assert_eq!(c.get(), 2);
    }
}
