//! Reachability (transitive closure) over a DAG.
//!
//! URSA's partial order ≤ is the reachability relation of the trace DAG
//! (paper §3): two nodes are *independent* — may execute in parallel —
//! exactly when neither reaches the other. Measurement, excessive chain
//! set trimming, and every transformation all query this relation, so we
//! materialize it as a pair of bit matrices (descendants and ancestors)
//! and update it incrementally when sequence edges are added.

use crate::bitset::{BitMatrix, BitSet};
use crate::dag::{Dag, NodeId};

/// The exact set of `(src, dst)` reachability pairs that one edge
/// insertion newly established, as recorded by
/// [`Reachability::add_edge_logged`].
///
/// Because [`Reachability::add_edge`] is monotone — it only ever *sets*
/// bits, and only bits that were clear before — unsetting precisely the
/// recorded pairs restores the closure bit-for-bit. That makes a
/// sequence of tentative edge insertions revertible in LIFO order
/// without recomputing anything.
///
/// # Examples
///
/// ```
/// use ursa_graph::dag::{Dag, EdgeKind, NodeId};
/// use ursa_graph::reach::Reachability;
///
/// let mut g = Dag::new(3);
/// g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
/// let mut r = Reachability::of(&g);
/// let delta = r.add_edge_logged(NodeId(1), NodeId(2));
/// assert!(r.reaches(NodeId(0), NodeId(2)));
/// r.undo(&delta);
/// assert!(!r.reaches(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReachDelta {
    /// Pairs `(src, dst)` that became reachable by this insertion.
    pairs: Vec<(usize, usize)>,
}

impl ReachDelta {
    /// Number of newly established pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the inserted edge was already implied and nothing
    /// changed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the newly established `(src, dst)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pairs
            .iter()
            .map(|&(s, d)| (NodeId::from(s), NodeId::from(d)))
    }
}

/// Materialized transitive closure of a [`Dag`].
///
/// # Examples
///
/// ```
/// use ursa_graph::dag::{Dag, EdgeKind, NodeId};
/// use ursa_graph::reach::Reachability;
///
/// let mut g = Dag::new(3);
/// g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
/// g.add_edge(NodeId(1), NodeId(2), EdgeKind::Data);
/// let r = Reachability::of(&g);
/// assert!(r.reaches(NodeId(0), NodeId(2)));
/// assert!(!r.reaches(NodeId(2), NodeId(0)));
/// assert!(!r.independent(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reachability {
    /// `desc.get(a, b)` ⇔ there is a nonempty path a → b.
    desc: BitMatrix,
    /// `anc.get(b, a)` ⇔ there is a nonempty path a → b (transpose of `desc`).
    anc: BitMatrix,
}

impl Reachability {
    /// Computes the closure of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a cycle.
    pub fn of(g: &Dag) -> Self {
        let n = g.node_count();
        let order = g
            .topo_order()
            .expect("reachability requires an acyclic graph");
        let mut desc = BitMatrix::new(n);
        // Reverse topological order: successors are finished first.
        for &v in order.iter().rev() {
            // Collect successor indices first to avoid borrowing issues.
            let succs: Vec<usize> = g.succs(v).map(NodeId::index).collect();
            for s in succs {
                desc.set(v.index(), s);
                desc.or_row_into(s, v.index());
            }
        }
        let mut anc = BitMatrix::new(n);
        for i in 0..n {
            for j in desc.row_iter(i) {
                anc.set(j, i);
            }
        }
        Reachability { desc, anc }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.desc.len()
    }

    /// `true` for a zero-node graph.
    pub fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }

    /// `true` if there is a nonempty path `a → b`.
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.desc.get(a.index(), b.index())
    }

    /// `true` if the nodes are unrelated in the partial order — i.e. they
    /// may execute concurrently (paper §3, after Definition 2).
    pub fn independent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }

    /// The strict descendants of `v` as a [`BitSet`] of node indices.
    pub fn descendants(&self, v: NodeId) -> BitSet {
        self.desc.row_bitset(v.index())
    }

    /// The strict ancestors of `v` as a [`BitSet`] of node indices.
    pub fn ancestors(&self, v: NodeId) -> BitSet {
        self.anc.row_bitset(v.index())
    }

    /// Iterates over the strict descendants of `v`.
    pub fn descendants_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.desc.row_iter(v.index()).map(NodeId::from)
    }

    /// Iterates over the strict ancestors of `v`.
    pub fn ancestors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.anc.row_iter(v.index()).map(NodeId::from)
    }

    /// Read-only view of `v`'s descendant row, one bit per node in
    /// [`crate::bitset::BitSet::as_words`] layout, for word-parallel
    /// consumers that AND it with a node mask.
    pub fn descendant_words(&self, v: NodeId) -> &[u64] {
        self.desc.row_words(v.index())
    }

    /// Number of strict descendants of `v`.
    pub fn descendant_count(&self, v: NodeId) -> usize {
        self.desc.row_len(v.index())
    }

    /// `true` if adding the edge `a → b` would create a cycle (i.e. `b`
    /// already reaches `a`, or `a == b`).
    pub fn would_cycle(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.reaches(b, a)
    }

    /// Incrementally accounts for a newly inserted edge `a → b`.
    ///
    /// Every ancestor of `a` (and `a` itself) gains `b` and `b`'s
    /// descendants, one word-parallel row OR per source; the transpose
    /// is updated symmetrically. A source that already reaches `b`
    /// already holds all of them and is skipped.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle (call
    /// [`Reachability::would_cycle`] first).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(
            !self.would_cycle(a, b),
            "edge {a} -> {b} would create a cycle"
        );
        if self.reaches(a, b) {
            return;
        }
        let (a, b) = (a.index(), b.index());
        // Acyclicity keeps `b` out of {a} ∪ anc(a) and `a` out of
        // {b} ∪ desc(b), so the rows being read are never written.
        for s in std::iter::once(a).chain(self.anc.row_iter(a)) {
            if !self.desc.get(s, b) {
                self.desc.or_row_into(b, s);
                self.desc.set(s, b);
            }
        }
        for d in std::iter::once(b).chain(self.desc.row_iter(b)) {
            if !self.anc.get(d, a) {
                self.anc.or_row_into(a, d);
                self.anc.set(d, a);
            }
        }
    }

    /// Extends the relation to `n` nodes; the new nodes start unrelated
    /// to everything. Add their edges with [`Reachability::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the current node count.
    pub fn grow(&mut self, n: usize) {
        self.desc.grow(n);
        self.anc.grow(n);
    }

    /// Like [`Reachability::add_edge`], but returns the exact set of
    /// pairs that became reachable, so the insertion can be reverted
    /// with [`Reachability::undo`].
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle.
    pub fn add_edge_logged(&mut self, a: NodeId, b: NodeId) -> ReachDelta {
        assert!(
            !self.would_cycle(a, b),
            "edge {a} -> {b} would create a cycle"
        );
        let mut delta = ReachDelta::default();
        if self.reaches(a, b) {
            // Already implied; nothing changes.
            return delta;
        }
        let (a, b) = (a.index(), b.index());
        // Per source, `b` first and then `desc(b)` ascending: the pair
        // order consumers of the delta see.
        // A source that already reaches `b` gains nothing.
        for s in std::iter::once(a).chain(self.anc.row_iter(a)) {
            if !self.desc.get(s, b) {
                self.desc.set(s, b);
                delta.pairs.push((s, b));
                self.desc
                    .or_row_into_logged(b, s, |d| delta.pairs.push((s, d)));
            }
        }
        for &(s, d) in &delta.pairs {
            self.anc.set(d, s);
        }
        delta
    }

    /// Reverts a delta produced by [`Reachability::add_edge_logged`].
    ///
    /// Deltas must be undone in LIFO order with respect to the
    /// insertions that produced them; each delta records only pairs that
    /// were newly set at its own insertion time, so out-of-order undo
    /// could clear a pair a later insertion still relies on.
    pub fn undo(&mut self, delta: &ReachDelta) {
        for &(s, d) in &delta.pairs {
            self.desc.unset(s, d);
            self.anc.unset(d, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::EdgeKind;

    fn chain(n: usize) -> Dag {
        let mut g = Dag::new(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::from(i), NodeId::from(i + 1), EdgeKind::Data);
        }
        g
    }

    #[test]
    fn chain_closure_is_total_order() {
        let g = chain(5);
        let r = Reachability::of(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(r.reaches(NodeId(i), NodeId(j)), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn independence_of_diamond_arms() {
        let mut g = Dag::new(4);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(0), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(3), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        let r = Reachability::of(&g);
        assert!(r.independent(NodeId(1), NodeId(2)));
        assert!(!r.independent(NodeId(0), NodeId(1)));
        assert!(
            !r.independent(NodeId(1), NodeId(1)),
            "a node is related to itself"
        );
    }

    #[test]
    fn ancestors_are_transpose_of_descendants() {
        let g = chain(4);
        let r = Reachability::of(&g);
        assert_eq!(
            r.descendants(NodeId(1)).iter().collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(r.ancestors(NodeId(1)).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(r.descendant_count(NodeId(0)), 3);
    }

    #[test]
    fn incremental_add_edge_matches_recompute() {
        let mut g = Dag::new(6);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        g.add_edge(NodeId(4), NodeId(5), EdgeKind::Data);
        let mut r = Reachability::of(&g);

        g.add_edge(NodeId(1), NodeId(2), EdgeKind::Sequence);
        r.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(4), EdgeKind::Sequence);
        r.add_edge(NodeId(3), NodeId(4));

        let fresh = Reachability::of(&g);
        for i in 0..6u32 {
            for j in 0..6u32 {
                assert_eq!(
                    r.reaches(NodeId(i), NodeId(j)),
                    fresh.reaches(NodeId(i), NodeId(j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn word_parallel_and_logged_insertion_agree_across_word_boundaries() {
        // Two 40-node chains, joined and cross-linked one edge at a
        // time: rows span two words and every insertion moves many
        // pairs at once.
        let mut g = Dag::new(80);
        for i in 0..79 {
            if i != 39 {
                g.add_edge(NodeId::from(i), NodeId::from(i + 1), EdgeKind::Data);
            }
        }
        let mut fast = Reachability::of(&g);
        let mut logged = fast.clone();
        for (a, b) in [(10u32, 50u32), (45, 20), (39, 40), (5, 70)] {
            let (a, b) = (NodeId(a), NodeId(b));
            if fast.would_cycle(a, b) {
                continue;
            }
            g.add_edge(a, b, EdgeKind::Sequence);
            fast.add_edge(a, b);
            logged.add_edge_logged(a, b);
            let fresh = Reachability::of(&g);
            assert_eq!(fast, fresh, "word-parallel after {a} -> {b}");
            assert_eq!(logged, fresh, "logged after {a} -> {b}");
        }
    }

    #[test]
    fn grow_then_add_edges_matches_recompute() {
        // Splice a new node into the middle of a chain that crosses a
        // word boundary, the way spill insertion adds its store/load.
        let mut g = chain(64);
        let mut r = Reachability::of(&g);
        let x = g.add_node();
        r.grow(g.node_count());
        assert!(!r.reaches(NodeId(0), x) && r.descendant_count(x) == 0);
        for (a, b) in [(NodeId(30), x), (x, NodeId(31)), (x, NodeId(63))] {
            g.add_edge(a, b, EdgeKind::Data);
            r.add_edge(a, b);
        }
        assert_eq!(r, Reachability::of(&g));
        assert!(r.reaches(NodeId(0), x) && r.reaches(x, NodeId(63)));
    }

    #[test]
    fn add_implied_edge_is_noop() {
        let g = chain(3);
        let mut r = Reachability::of(&g);
        r.add_edge(NodeId(0), NodeId(2));
        assert!(r.reaches(NodeId(0), NodeId(2)));
        assert!(!r.reaches(NodeId(2), NodeId(0)));
    }

    #[test]
    fn would_cycle_detects_back_edge() {
        let g = chain(3);
        let r = Reachability::of(&g);
        assert!(r.would_cycle(NodeId(2), NodeId(0)));
        assert!(r.would_cycle(NodeId(1), NodeId(1)));
        assert!(!r.would_cycle(NodeId(0), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "would create a cycle")]
    fn add_cycle_edge_panics() {
        let g = chain(2);
        let mut r = Reachability::of(&g);
        r.add_edge(NodeId(1), NodeId(0));
    }

    fn assert_same(a: &Reachability, b: &Reachability, what: &str) {
        let n = a.len() as u32;
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    a.reaches(NodeId(i), NodeId(j)),
                    b.reaches(NodeId(i), NodeId(j)),
                    "{what}: desc ({i},{j})"
                );
                assert_eq!(
                    a.ancestors(NodeId(i)).contains(j as usize),
                    b.ancestors(NodeId(i)).contains(j as usize),
                    "{what}: anc ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn logged_add_then_undo_restores_closure_exactly() {
        let mut g = Dag::new(6);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        g.add_edge(NodeId(4), NodeId(5), EdgeKind::Data);
        let before = Reachability::of(&g);
        let mut r = before.clone();
        let delta = r.add_edge_logged(NodeId(1), NodeId(2));
        assert!(!delta.is_empty());
        assert!(r.reaches(NodeId(0), NodeId(3)));
        r.undo(&delta);
        assert_same(&r, &before, "after undo");
    }

    #[test]
    fn lifo_undo_of_stacked_deltas() {
        let mut g = Dag::new(8);
        for i in (0..8).step_by(2) {
            g.add_edge(NodeId::from(i), NodeId::from(i + 1), EdgeKind::Data);
        }
        let base = Reachability::of(&g);
        let mut r = base.clone();
        let d1 = r.add_edge_logged(NodeId(1), NodeId(2));
        let mid = r.clone();
        let d2 = r.add_edge_logged(NodeId(3), NodeId(4));
        let d3 = r.add_edge_logged(NodeId(5), NodeId(6));
        assert!(r.reaches(NodeId(0), NodeId(7)));
        r.undo(&d3);
        r.undo(&d2);
        assert_same(&r, &mid, "after undoing d3, d2");
        r.undo(&d1);
        assert_same(&r, &base, "after undoing everything");
    }

    #[test]
    fn revert_after_revert_and_reapply() {
        // Undo, re-apply the same edge, undo again: the closure must land
        // back at base both times (the engine's probe/rollback loop does
        // exactly this with different candidates between rounds).
        let mut g = Dag::new(4);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        let base = Reachability::of(&g);
        let mut r = base.clone();
        for _ in 0..3 {
            let d = r.add_edge_logged(NodeId(1), NodeId(2));
            assert!(r.reaches(NodeId(0), NodeId(3)));
            r.undo(&d);
            assert_same(&r, &base, "round-trip");
        }
    }

    #[test]
    fn implied_edge_delta_is_empty_and_undo_is_noop() {
        let g = chain(3);
        let mut r = Reachability::of(&g);
        let snapshot = r.clone();
        let d = r.add_edge_logged(NodeId(0), NodeId(2));
        assert!(d.is_empty());
        r.undo(&d);
        assert_same(&r, &snapshot, "implied edge");
    }

    #[test]
    fn delta_pairs_enumerate_new_reachability() {
        let mut g = Dag::new(4);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        let mut r = Reachability::of(&g);
        let d = r.add_edge_logged(NodeId(1), NodeId(2));
        let mut pairs: Vec<(u32, u32)> = d.pairs().map(|(a, b)| (a.0, b.0)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
    }

    #[test]
    fn delta_pairs_come_source_by_source_head_first() {
        // Sources in order `a`, then anc(a) ascending; per source `b`
        // first, then desc(b) ascending. Consumers replay the pairs in
        // this order, so it is part of the contract.
        let mut g = Dag::new(6);
        g.add_edge(NodeId(0), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(3), NodeId(4), EdgeKind::Data);
        g.add_edge(NodeId(3), NodeId(5), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(5), EdgeKind::Data);
        let mut r = Reachability::of(&g);
        let d = r.add_edge_logged(NodeId(2), NodeId(3));
        let pairs: Vec<(u32, u32)> = d.pairs().map(|(a, b)| (a.0, b.0)).collect();
        assert_eq!(
            pairs,
            vec![
                (2, 3),
                (2, 4),
                (2, 5),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4)
            ]
        );
    }
}
