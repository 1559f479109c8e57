//! The index's cache of finished hierarchies.
//!
//! Of a request's parameters, only `min_pts`, the resolved linkage and the
//! effective metric reach the core distances, the spanning tree and the
//! dendrogram; `min_cluster_size` and `allow_single_cluster` enter only at
//! condensing and selection. A [`HierarchyCache`] keeps the finished front
//! half of recent requests on their [`DatasetIndex`](super::DatasetIndex),
//! keyed by exactly those three values, so a request that differs from an
//! earlier one only in its extraction parameters skips the spanning tree,
//! the sort and the dendrogram. Every cached array is a pure function of
//! the frozen points and the key (the serial ≡ threaded contract), so a
//! hit is bit-identical to a miss.

use std::mem::size_of_val;
use std::sync::Arc;

use parking_lot::Mutex;

use pandora_core::{Dendrogram, PandoraStats, PhaseTimings, SortedMst};
use pandora_exec::counters::RelaxedCounter;
use pandora_mst::{Linkage, MetricKind};

/// Everything that determines a hierarchy over one frozen index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HierarchyKey {
    pub(crate) min_pts: usize,
    pub(crate) linkage: Linkage,
    pub(crate) metric: MetricKind,
}

/// A finished hierarchy: the front half of one request's result.
#[derive(Debug, Clone)]
pub(crate) struct Hierarchy {
    pub(crate) core2: Vec<f32>,
    pub(crate) mst: SortedMst,
    pub(crate) dendrogram: Dendrogram,
    pub(crate) pandora_stats: PandoraStats,
}

impl Hierarchy {
    /// Bytes of the arrays: about 28 per point.
    fn bytes(&self) -> usize {
        let (mst, dendrogram) = (&self.mst, &self.dendrogram);
        size_of_val(self.core2.as_slice())
            + size_of_val(mst.src.as_slice())
            + size_of_val(mst.dst.as_slice())
            + size_of_val(mst.weight.as_slice())
            + size_of_val(dendrogram.edge_parent.as_slice())
            + size_of_val(dendrogram.vertex_parent.as_slice())
            + size_of_val(dendrogram.edge_weight.as_slice())
            + size_of_val(self.pandora_stats.level_edge_counts.as_slice())
    }
}

/// A snapshot of one index's hierarchy cache (the `hierarchy_*` fields of
/// a `pandorad` `stats` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// Runs answered from a held hierarchy.
    pub hits: u64,
    /// Runs that computed their hierarchy. Rejected requests count as
    /// neither.
    pub misses: u64,
    /// Hierarchies held.
    pub entries: usize,
    /// Bytes of the held hierarchies' arrays.
    pub bytes: usize,
}

struct Entry {
    key: HierarchyKey,
    hierarchy: Arc<Hierarchy>,
    bytes: usize,
}

/// A least-recently-used cache of finished hierarchies holding at most
/// `budget` bytes. The lock is held only to find and clone an `Arc` or to
/// insert one; hierarchies are computed and copied outside it.
pub(crate) struct HierarchyCache {
    budget: usize,
    /// Held entries, least recently used first.
    entries: Mutex<Vec<Entry>>,
    hits: RelaxedCounter,
    misses: RelaxedCounter,
}

impl HierarchyCache {
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget,
            entries: Mutex::new(Vec::new()),
            hits: RelaxedCounter::new(),
            misses: RelaxedCounter::new(),
        }
    }

    /// The hierarchy held for `key`, counted as a hit and marked most
    /// recently used. `None` counts nothing: the caller computes the
    /// hierarchy and [`HierarchyCache::insert`] counts the miss.
    pub(crate) fn get(&self, key: &HierarchyKey) -> Option<Arc<Hierarchy>> {
        let mut entries = self.entries.lock();
        let at = entries.iter().position(|e| e.key == *key)?;
        let entry = entries.remove(at);
        let hierarchy = Arc::clone(&entry.hierarchy);
        entries.push(entry);
        drop(entries);
        self.hits.incr();
        Some(hierarchy)
    }

    /// Counts a miss and holds a copy of the hierarchy it computed for
    /// `key`, evicting least recently used entries until the copy fits. A
    /// hierarchy larger than the whole budget is not held. When a
    /// concurrent miss on the same key got there first, the held entry
    /// stays and this copy is dropped.
    pub(crate) fn insert(&self, key: HierarchyKey, hierarchy: &Hierarchy) {
        self.misses.incr();
        let bytes = hierarchy.bytes();
        if bytes > self.budget {
            return;
        }
        let mut copy = hierarchy.clone();
        // Phase timings are not a function of the key; a hit reports 0.
        copy.pandora_stats.timings = PhaseTimings::default();
        let entry = Entry {
            key,
            hierarchy: Arc::new(copy),
            bytes,
        };
        let mut entries = self.entries.lock();
        if entries.iter().any(|e| e.key == key) {
            return;
        }
        let mut held: usize = entries.iter().map(|e| e.bytes).sum();
        // The entry fits the budget alone, so this stops before the list
        // runs dry.
        while held + bytes > self.budget {
            held -= entries.remove(0).bytes;
        }
        entries.push(entry);
    }

    pub(crate) fn stats(&self) -> HierarchyStats {
        let entries = self.entries.lock();
        HierarchyStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: entries.len(),
            bytes: entries.iter().map(|e| e.bytes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(min_pts: usize) -> HierarchyKey {
        HierarchyKey {
            min_pts,
            linkage: Linkage::Single,
            metric: MetricKind::MutualReachability,
        }
    }

    /// A path over `n` points whose `core2` is filled with `tag`.
    fn hierarchy(n: usize, tag: f32) -> Hierarchy {
        let edges: Vec<pandora_core::Edge> = (1..n as u32)
            .map(|v| pandora_core::Edge::new(v - 1, v, v as f32))
            .collect();
        let ctx = pandora_exec::ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (dendrogram, pandora_stats) = pandora_core::pandora::dendrogram_from_sorted(&ctx, &mst);
        Hierarchy {
            core2: vec![tag; n],
            mst,
            dendrogram,
            pandora_stats,
        }
    }

    #[test]
    fn entries_cost_about_28_bytes_per_point() {
        let h = hierarchy(1000, 0.0);
        let levels = size_of_val(h.pandora_stats.level_edge_counts.as_slice());
        assert_eq!(h.bytes() - levels, 4 * 1000 + 12 * 999 + 4 * 1000 + 8 * 999);
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let one = hierarchy(100, 0.0).bytes();
        let cache = HierarchyCache::new(3 * one);
        for m in 1..=3 {
            cache.insert(key(m), &hierarchy(100, m as f32));
        }
        // Touch 1, so 2 is now the least recently used.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(4), &hierarchy(100, 4.0));
        assert!(cache.get(&key(2)).is_none(), "2 was evicted");
        for m in [1, 3, 4] {
            let held = cache.get(&key(m)).expect("held");
            assert_eq!(held.core2[0], m as f32, "entry {m} keeps its own arrays");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 4));
        assert_eq!((stats.entries, stats.bytes), (3, 3 * one));
    }

    #[test]
    fn a_budget_below_one_entry_caches_nothing() {
        let h = hierarchy(50, 1.0);
        let cache = HierarchyCache::new(h.bytes() - 1);
        cache.insert(key(2), &h);
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(
            cache.stats(),
            HierarchyStats {
                hits: 0,
                misses: 1,
                entries: 0,
                bytes: 0
            }
        );
    }

    #[test]
    fn a_second_insert_of_a_key_keeps_the_first_and_zeroes_timings() {
        let cache = HierarchyCache::new(usize::MAX);
        let mut first = hierarchy(40, 1.0);
        first.pandora_stats.timings.sort_s = 1.0;
        cache.insert(key(2), &first);
        cache.insert(key(2), &hierarchy(40, 2.0));
        let held = cache.get(&key(2)).expect("held");
        assert_eq!(held.core2[0], 1.0);
        assert_eq!(held.pandora_stats.timings.sort_s, 0.0);
        assert_eq!(
            held.pandora_stats.level_edge_counts,
            first.pandora_stats.level_edge_counts
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (2, 1));
    }
}
