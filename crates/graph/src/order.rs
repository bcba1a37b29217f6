//! Longest-path analyses over weighted DAGs: ASAP/ALAP levels, slack and
//! critical-path length.
//!
//! URSA's transformation heuristics rank nodes by how close they sit to a
//! hammock's entry or exit (paper §4.1: "the X nodes closest to the
//! hammock's entry node") and evaluate candidate transformations by their
//! effect on the critical path (paper §5). Both notions reduce to longest
//! paths with node weights = instruction latencies.

use crate::dag::{Dag, NodeId};

/// Longest-path schedule bounds for every node of a DAG.
///
/// `asap[v]` is the earliest cycle `v` can start (longest weighted path
/// from any root to `v`, exclusive of `v`'s own latency). `alap[v]` is the
/// latest start that still permits the critical-path-length schedule.
///
/// # Examples
///
/// ```
/// use ursa_graph::dag::{Dag, EdgeKind, NodeId};
/// use ursa_graph::order::Levels;
///
/// let mut g = Dag::new(3);
/// g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
/// g.add_edge(NodeId(1), NodeId(2), EdgeKind::Data);
/// let levels = Levels::unit(&g);
/// assert_eq!(levels.critical_path(), 3);
/// assert_eq!(levels.asap(NodeId(2)), 2);
/// assert_eq!(levels.slack(NodeId(1)), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Levels {
    asap: Vec<u64>,
    alap: Vec<u64>,
    critical_path: u64,
}

impl Levels {
    /// Computes levels with per-node latencies `weights` (cycles each node
    /// occupies before dependents may start). Zero weights are allowed for
    /// pseudo nodes (entry/exit anchors, live-in markers) that take no
    /// machine time.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != g.node_count()` or if `g` is cyclic.
    pub fn weighted(g: &Dag, weights: &[u64]) -> Self {
        assert_eq!(weights.len(), g.node_count(), "one weight per node");
        let order = g.topo_order().expect("levels require an acyclic graph");
        let n = g.node_count();
        let mut asap = vec![0u64; n];
        for &v in &order {
            for s in g.succs(v) {
                asap[s.index()] = asap[s.index()].max(asap[v.index()] + weights[v.index()]);
            }
        }
        let critical_path = order
            .iter()
            .map(|&v| asap[v.index()] + weights[v.index()])
            .max()
            .unwrap_or(0);
        let mut alap = vec![critical_path; n];
        for &v in order.iter().rev() {
            let finish = g
                .succs(v)
                .map(|s| alap[s.index()])
                .min()
                .unwrap_or(critical_path);
            alap[v.index()] = finish - weights[v.index()];
        }
        Levels {
            asap,
            alap,
            critical_path,
        }
    }

    /// Computes levels with unit latency for every node.
    pub fn unit(g: &Dag) -> Self {
        Levels::weighted(g, &vec![1; g.node_count()])
    }

    /// Earliest start cycle of `v`.
    pub fn asap(&self, v: NodeId) -> u64 {
        self.asap[v.index()]
    }

    /// Latest start cycle of `v` consistent with the critical path.
    pub fn alap(&self, v: NodeId) -> u64 {
        self.alap[v.index()]
    }

    /// Scheduling freedom of `v`; zero for critical nodes.
    pub fn slack(&self, v: NodeId) -> u64 {
        self.alap[v.index()] - self.asap[v.index()]
    }

    /// Length in cycles of the longest weighted path through the DAG —
    /// the lower bound on any schedule's length with unlimited resources.
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// `true` if `v` lies on a critical path.
    pub fn is_critical(&self, v: NodeId) -> bool {
        self.slack(v) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::EdgeKind;

    fn diamond() -> Dag {
        let mut g = Dag::new(4);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        g.add_edge(NodeId(0), NodeId(2), EdgeKind::Data);
        g.add_edge(NodeId(1), NodeId(3), EdgeKind::Data);
        g.add_edge(NodeId(2), NodeId(3), EdgeKind::Data);
        g
    }

    #[test]
    fn unit_diamond_levels() {
        let l = Levels::unit(&diamond());
        assert_eq!(l.critical_path(), 3);
        assert_eq!(l.asap(NodeId(0)), 0);
        assert_eq!(l.asap(NodeId(1)), 1);
        assert_eq!(l.asap(NodeId(3)), 2);
        assert!(l.is_critical(NodeId(0)));
        assert!(l.is_critical(NodeId(3)));
        assert_eq!(l.slack(NodeId(1)), 0);
    }

    #[test]
    fn weighted_latency_shifts_critical_path() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3, with node 2 costing 5 cycles.
        let g = diamond();
        let l = Levels::weighted(&g, &[1, 1, 5, 1]);
        assert_eq!(l.critical_path(), 7); // 0 (1) + 2 (5) + 3 (1)
        assert_eq!(l.asap(NodeId(3)), 6);
        assert_eq!(l.alap(NodeId(1)), 5);
        assert_eq!(l.slack(NodeId(1)), 4);
        assert!(l.is_critical(NodeId(2)));
        assert!(!l.is_critical(NodeId(1)));
    }

    #[test]
    fn isolated_nodes_have_full_slack() {
        let mut g = Dag::new(3);
        g.add_edge(NodeId(0), NodeId(1), EdgeKind::Data);
        let l = Levels::unit(&g);
        assert_eq!(l.critical_path(), 2);
        assert_eq!(l.asap(NodeId(2)), 0);
        assert_eq!(l.alap(NodeId(2)), 1);
        assert_eq!(l.slack(NodeId(2)), 1);
    }

    #[test]
    fn empty_graph_has_zero_critical_path() {
        let g = Dag::new(0);
        let l = Levels::unit(&g);
        assert_eq!(l.critical_path(), 0);
    }

    #[test]
    fn zero_weight_pseudo_nodes_take_no_time() {
        // Node 0 is a zero-latency entry anchor.
        let g = diamond();
        let l = Levels::weighted(&g, &[0, 1, 1, 1]);
        assert_eq!(l.critical_path(), 2);
        assert_eq!(l.asap(NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "one weight per node")]
    fn wrong_weight_count_rejected() {
        let g = diamond();
        Levels::weighted(&g, &[1, 1]);
    }
}
