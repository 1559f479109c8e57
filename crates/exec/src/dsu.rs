//! Disjoint-set (union–find) structures.
//!
//! [`AtomicDsu`] is the synchronization-free pointer-jumping union–find the
//! paper adopts from Jaiganesh & Burtscher's GPU connected-components work
//! (\[22\] in the paper): unions attach the **larger** root under the smaller
//! one with a CAS, so parent links only ever decrease and lock-free path
//! halving stays correct under races. Union-by-min also makes the final
//! component representative the minimum vertex id — deterministic regardless
//! of scheduling, which the reproduction relies on for exact-equality tests.
//!
//! [`SeqDsu`] is a classical sequential union–find with path halving, used
//! by the bottom-up baseline (paper Algorithm 2) and as a test oracle.

use std::sync::atomic::{AtomicU32, Ordering};

/// Lock-free union–find over `0..n` with union-by-min.
///
/// ```
/// use pandora_exec::dsu::AtomicDsu;
///
/// let dsu = AtomicDsu::new(4);
/// dsu.union(0, 2);
/// dsu.union(2, 3);
/// assert_eq!(dsu.find(3), 0); // union-by-min ⇒ deterministic roots
/// assert_ne!(dsu.find(1), dsu.find(3));
/// ```
#[derive(Debug)]
pub struct AtomicDsu {
    parent: Vec<AtomicU32>,
}

impl AtomicDsu {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Resets the structure to `n` singleton sets, reusing the existing
    /// allocation whenever `n` fits its capacity.
    ///
    /// Exclusive access (`&mut self`) guarantees no find/union is racing,
    /// so plain stores suffice. This is what lets long-lived workspaces
    /// (Borůvka rounds, contraction levels) run union–find allocation-free
    /// in the steady state.
    pub fn reset(&mut self, n: usize) {
        self.parent.truncate(n);
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = AtomicU32::new(i as u32);
        }
        let have = self.parent.len() as u32;
        self.parent.extend((have..n as u32).map(AtomicU32::new));
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the current root of `x`, halving the path along the way.
    ///
    /// Safe to call concurrently with other `find`/`union` operations.
    #[inline]
    pub fn find(&self, x: u32) -> u32 {
        let mut cur = x;
        loop {
            // ORDERING: find tolerates stale parents: a stale read costs extra hops, never a wrong root
            let p = self.parent[cur as usize].load(Ordering::Relaxed);
            if p == cur {
                return cur;
            }
            // ORDERING: a stale grandparent is still a valid ancestor — see the path-halving note below
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp == p {
                return p;
            }
            // Path halving. Parent values only decrease (union-by-min), so a
            // racy store can only re-point `cur` at another valid ancestor.
            // ORDERING: parents only decrease (union-by-min), so a racy store re-points at another valid ancestor
            self.parent[cur as usize].store(gp, Ordering::Relaxed);
            cur = gp;
        }
    }

    /// Unions the sets containing `a` and `b`.
    pub fn union(&self, a: u32, b: u32) {
        let mut a = self.find(a);
        let mut b = self.find(b);
        while a != b {
            // Attach the larger root under the smaller (union-by-min).
            if a < b {
                std::mem::swap(&mut a, &mut b);
            }
            match self.parent[a as usize].compare_exchange(
                a,
                b,
                Ordering::Relaxed, // ORDERING: CAS atomicity alone links the roots; nothing else is published through the parent
                Ordering::Relaxed, // ORDERING: failure value is re-derived via find; no ordering needed
            ) {
                Ok(_) => return,
                Err(_) => {
                    // Someone re-parented `a` concurrently; retry from the
                    // new roots.
                    a = self.find(a);
                    b = self.find(b);
                }
            }
        }
    }

    /// Fully compresses every element to point directly at its root.
    ///
    /// Must not race with concurrent unions.
    pub fn flatten(&self) {
        for i in 0..self.parent.len() as u32 {
            let root = self.find(i);
            // ORDERING: flatten is documented as not racing unions; the atomic store is for the element type, not for ordering
            self.parent[i as usize].store(root, Ordering::Relaxed);
        }
    }

    /// Consumes the structure, returning the parent array (call after all
    /// unions have completed; roots satisfy `parent[i] == i`).
    pub fn into_parents(self) -> Vec<u32> {
        self.flatten();
        self.parent.into_iter().map(|a| a.into_inner()).collect()
    }
}

/// Sequential union–find with path halving and union-by-min.
pub struct SeqDsu {
    parent: Vec<u32>,
}

impl SeqDsu {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    /// Finds the root of `x` with path halving.
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        let mut cur = x;
        loop {
            let p = self.parent[cur as usize];
            if p == cur {
                return cur;
            }
            let gp = self.parent[p as usize];
            if gp == p {
                return p;
            }
            self.parent[cur as usize] = gp;
            cur = gp;
        }
    }

    /// Unions the sets containing `a` and `b`; returns the surviving root,
    /// or `None` if they were already joined.
    pub fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        Some(lo)
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use crate::ExecCtx;
    use std::sync::Arc;

    #[test]
    fn seq_union_find_basics() {
        let mut dsu = SeqDsu::new(6);
        assert!(!dsu.same(0, 5));
        dsu.union(0, 1);
        dsu.union(2, 3);
        dsu.union(1, 3);
        assert!(dsu.same(0, 2));
        assert!(!dsu.same(0, 4));
        assert_eq!(dsu.find(3), 0); // union-by-min → root is min id
        assert_eq!(dsu.union(0, 3), None);
    }

    #[test]
    fn atomic_matches_sequential_on_random_edges() {
        let n = 10_000u32;
        let mut state = 0xDEADBEEFu64;
        let mut edges = Vec::new();
        for _ in 0..8_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let a = (state % n as u64) as u32;
            let b = ((state >> 32) % n as u64) as u32;
            edges.push((a, b));
        }
        let mut seq = SeqDsu::new(n as usize);
        for &(a, b) in &edges {
            seq.union(a, b);
        }

        let atomic = AtomicDsu::new(n as usize);
        let ctx = ExecCtx::on_pool(Arc::new(ThreadPool::new(4)));
        let edges_ref = &edges;
        let atomic_ref = &atomic;
        ctx.for_each(edges.len(), 64, |i| {
            let (a, b) = edges_ref[i];
            atomic_ref.union(a, b);
        });
        // Union-by-min makes roots deterministic: compare directly.
        for i in 0..n {
            assert_eq!(atomic.find(i), seq.find(i), "element {i}");
        }
    }

    #[test]
    fn into_parents_is_flat() {
        let dsu = AtomicDsu::new(100);
        for i in 0..99 {
            dsu.union(i, i + 1);
        }
        let parents = dsu.into_parents();
        assert!(parents.iter().all(|&p| p == 0));
    }

    #[test]
    fn chain_unions_compress() {
        let dsu = AtomicDsu::new(1000);
        for i in (1..1000).rev() {
            dsu.union(i - 1, i);
        }
        assert_eq!(dsu.find(999), 0);
    }
}
