//! Directed acyclic graphs with typed edges.
//!
//! URSA's program representation is a dependence DAG whose edges come in
//! two families (paper §2): *dependence* edges that preserve semantic
//! correctness (data, memory, control ordering from the trace scheduler)
//! and *sequence* edges added by URSA itself to remove schedules with
//! excessive resource requirements. [`Dag`] keeps the distinction so
//! transformations can be audited and undone.

use crate::bitset::BitSet;
use std::fmt;

/// Identifier of a node in a [`Dag`]; a dense index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index, for direct array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index fits in u32"))
    }
}

/// The provenance of a DAG edge (paper §2 / §3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// Flow of a value from a definition to a use.
    Data,
    /// Ordering between memory operations that may alias.
    Memory,
    /// Sequencing that precludes illegal motion of code across branches
    /// (added by the trace scheduler).
    Control,
    /// Anti/output dependence from register reuse. URSA's renamed DAGs
    /// never contain these; they appear only when a prepass register
    /// allocator has already mapped values onto a finite register file
    /// (the phase ordering the paper argues against, §1).
    Anti,
    /// Sequentialization added by URSA's reduction transformations.
    Sequence,
}

impl EdgeKind {
    /// `true` for the edge kinds that encode program semantics rather
    /// than URSA's own sequentialization decisions.
    pub fn is_semantic(self) -> bool {
        !matches!(self, EdgeKind::Sequence)
    }
}

/// A directed edge with its provenance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Provenance of the edge.
    pub kind: EdgeKind,
}

/// A growable directed acyclic graph with typed edges.
///
/// Acyclicity is the caller's responsibility on insertion (checked in
/// debug builds and by [`Dag::is_acyclic`]); URSA's transformations use
/// reachability information to refuse cycle-creating sequence edges.
///
/// # Examples
///
/// ```
/// use ursa_graph::dag::{Dag, EdgeKind};
///
/// let mut g = Dag::new(3);
/// let (a, b, c) = (g.node(0), g.node(1), g.node(2));
/// g.add_edge(a, b, EdgeKind::Data);
/// g.add_edge(b, c, EdgeKind::Data);
/// assert!(g.is_acyclic());
/// assert_eq!(g.succs(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Clone, Default)]
pub struct Dag {
    succs: Vec<Vec<(NodeId, EdgeKind)>>,
    preds: Vec<Vec<(NodeId, EdgeKind)>>,
    edge_count: usize,
    /// XOR of [`edge_hash`] over every present edge (plus a node-count
    /// term). Because XOR is self-inverse, add/remove of the same edge
    /// round-trips the fingerprint exactly — a tentative edit that is
    /// reverted leaves the fingerprint, and thus any cache keyed on it,
    /// untouched.
    fingerprint: u64,
}

/// splitmix64-style mix of an edge triple into a 64-bit contribution.
fn edge_hash(from: NodeId, to: NodeId, kind: EdgeKind) -> u64 {
    let mut z = (u64::from(from.0) << 35) ^ (u64::from(to.0) << 3) ^ (kind as u64);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Dag {
    /// Creates a DAG with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Dag {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            edge_count: 0,
            fingerprint: (n as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        }
    }

    /// A structural fingerprint of the graph: a commutative hash over
    /// the node count and every `(from, to, kind)` edge. Two graphs with
    /// the same fingerprint are (with overwhelming probability) the same
    /// graph, so caches of structure-derived analyses — hammock
    /// decompositions in particular — can key on it. Adding then
    /// removing an edge restores the fingerprint exactly.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of edges (parallel edges of different kinds count once each).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns the [`NodeId`] for dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a node of this graph.
    pub fn node(&self, i: usize) -> NodeId {
        assert!(
            i < self.node_count(),
            "node {i} out of range {}",
            self.node_count()
        );
        NodeId::from(i)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from)
    }

    /// Appends a fresh node with no edges and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let old = self.node_count() as u64;
        self.fingerprint ^=
            old.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (old + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        NodeId::from(self.node_count() - 1)
    }

    /// Adds an edge `from → to` of the given kind. Duplicate
    /// `(from, to, kind)` triples are ignored; the same node pair may be
    /// connected by edges of several kinds. Returns `true` if the edge was
    /// newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `from == to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        assert!(from.index() < self.node_count() && to.index() < self.node_count());
        assert_ne!(from, to, "self-loop {from} would create a cycle");
        if self.succs[from.index()].contains(&(to, kind)) {
            return false;
        }
        self.succs[from.index()].push((to, kind));
        self.preds[to.index()].push((from, kind));
        self.edge_count += 1;
        self.fingerprint ^= edge_hash(from, to, kind);
        true
    }

    /// Removes the edge `(from, to, kind)` if present; returns whether it
    /// was removed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        let s = &mut self.succs[from.index()];
        let Some(pos) = s.iter().position(|&e| e == (to, kind)) else {
            return false;
        };
        s.swap_remove(pos);
        let p = &mut self.preds[to.index()];
        let pos = p
            .iter()
            .position(|&e| e == (from, kind))
            .expect("pred list mirrors succ list");
        p.swap_remove(pos);
        self.edge_count -= 1;
        self.fingerprint ^= edge_hash(from, to, kind);
        true
    }

    /// `true` if any edge `from → to` exists, of any kind.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs[from.index()].iter().any(|&(t, _)| t == to)
    }

    /// `true` if an edge `from → to` of the given kind exists.
    pub fn has_edge_kind(&self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        self.succs[from.index()].contains(&(to, kind))
    }

    /// Iterates over the distinct successor nodes of `v` (a node connected
    /// by several edge kinds appears once per kind; use
    /// [`Dag::succ_edges`] to see kinds).
    pub fn succs(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[v.index()].iter().map(|&(t, _)| t)
    }

    /// Iterates over the distinct predecessor nodes of `v`.
    pub fn preds(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[v.index()].iter().map(|&(t, _)| t)
    }

    /// Iterates over outgoing edges of `v` with kinds.
    pub fn succ_edges(&self, v: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.succs[v.index()]
            .iter()
            .map(move |&(to, kind)| Edge { from: v, to, kind })
    }

    /// Iterates over incoming edges of `v` with kinds.
    pub fn pred_edges(&self, v: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.preds[v.index()]
            .iter()
            .map(move |&(from, kind)| Edge { from, to: v, kind })
    }

    /// Iterates over every edge of the graph.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |v| self.succ_edges(v))
    }

    /// In-degree of `v` counting parallel kinds separately.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.preds[v.index()].len()
    }

    /// Out-degree of `v` counting parallel kinds separately.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.succs[v.index()].len()
    }

    /// Nodes with no predecessors.
    pub fn roots(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Nodes with no successors.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Computes a topological order, or `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n)
            .map(|i| self.distinct_pred_count(NodeId::from(i)))
            .collect();
        let mut queue: Vec<NodeId> = (0..n)
            .map(NodeId::from)
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            let mut seen = BitSet::new(n);
            for s in self.succs(v) {
                if seen.insert(s.index()) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        queue.push(s);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    fn distinct_pred_count(&self, v: NodeId) -> usize {
        let mut seen = BitSet::new(self.node_count());
        self.preds(v).filter(|p| seen.insert(p.index())).count()
    }

    /// `true` if the graph contains no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Depth-first collection of every node reachable from `start`
    /// (excluding `start` itself).
    pub fn descendants(&self, start: NodeId) -> BitSet {
        let mut out = BitSet::new(self.node_count());
        let mut stack: Vec<NodeId> = self.succs(start).collect();
        while let Some(v) = stack.pop() {
            if out.insert(v.index()) {
                stack.extend(self.succs(v));
            }
        }
        out
    }

    /// Depth-first collection of every node that reaches `start`
    /// (excluding `start` itself).
    pub fn ancestors(&self, start: NodeId) -> BitSet {
        let mut out = BitSet::new(self.node_count());
        let mut stack: Vec<NodeId> = self.preds(start).collect();
        while let Some(v) = stack.pop() {
            if out.insert(v.index()) {
                stack.extend(self.preds(v));
            }
        }
        out
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )?;
        for v in self.nodes() {
            for e in self.succ_edges(v) {
                writeln!(f, "  {} -> {} [{:?}]", e.from, e.to, e.kind)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = Dag::new(4);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(0), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(3), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        g
    }

    #[test]
    fn add_edge_dedupes_same_kind() {
        let mut g = Dag::new(2);
        assert!(g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data));
        assert!(!g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data));
        assert!(g.add_edge(NodeId(0), NodeId(1), EdgeKind::Sequence));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge_kind(NodeId(0), NodeId(1), EdgeKind::Sequence));
    }

    #[test]
    fn remove_edge_respects_kind() {
        let mut g = Dag::new(2);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Sequence);
        assert!(g.remove_edge(NodeId(0), NodeId(1), EdgeKind::Sequence));
        assert!(!g.remove_edge(NodeId(0), NodeId(1), EdgeKind::Sequence));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        Dag::new(1).add_edge(NodeId(0), NodeId(0), EdgeKind::Data);
    }

    #[test]
    fn topo_order_of_diamond() {
        let g = diamond();
        let order = g.topo_order().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dag::new(3);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(0), EdgeKind::Sequence);
        assert!(!g.is_acyclic());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn topo_order_with_parallel_edge_kinds() {
        let mut g = Dag::new(2);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Memory);
        let order = g.topo_order().expect("acyclic");
        assert_eq!(order, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn roots_and_leaves() {
        let g = diamond();
        assert_eq!(g.roots(), vec![NodeId(0)]);
        assert_eq!(g.leaves(), vec![NodeId(3)]);
    }

    #[test]
    fn descendants_and_ancestors() {
        let g = diamond();
        let d = g.descendants(NodeId(0));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let a = g.ancestors(NodeId(3));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(g.descendants(NodeId(3)).is_empty());
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = diamond();
        let v = g.add_node();
        assert_eq!(v, NodeId(4));
        assert_eq!(g.node_count(), 5);
        g.add_edge(NodeId(3), v, EdgeKind::Sequence);
        assert!(g.is_acyclic());
    }

    #[test]
    fn edges_iterator_sees_everything() {
        let g = diamond();
        assert_eq!(g.edges().count(), 4);
        assert!(g.edges().all(|e| e.kind == EdgeKind::Data));
    }

    #[test]
    fn fingerprint_round_trips_under_add_remove() {
        let mut g = diamond();
        let fp = g.fingerprint();
        g.add_edge(NodeId(1), NodeId(2), EdgeKind::Sequence);
        assert_ne!(g.fingerprint(), fp, "adding an edge moves the print");
        g.remove_edge(NodeId(1), NodeId(2), EdgeKind::Sequence);
        assert_eq!(g.fingerprint(), fp, "removing it restores the print");
    }

    #[test]
    fn fingerprint_is_insertion_order_independent() {
        let mut a = Dag::new(3);
        a.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        a.add_edge(NodeId(1), NodeId(2), EdgeKind::Sequence);
        let mut b = Dag::new(3);
        b.add_edge(NodeId(1), NodeId(2), EdgeKind::Sequence);
        b.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_kind_and_shape() {
        let mut a = Dag::new(2);
        a.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        let mut b = Dag::new(2);
        b.add_edge(NodeId(0), NodeId(1), EdgeKind::Sequence);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(Dag::new(2).fingerprint(), Dag::new(3).fingerprint());
        let mut c = Dag::new(3);
        let fp2 = Dag::new(2).fingerprint();
        assert_ne!(c.fingerprint(), fp2);
        c.add_node();
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.fingerprint(), Dag::new(4).fingerprint());
    }
}
