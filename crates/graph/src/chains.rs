//! Minimum chain decomposition of a partial order (paper §3.1).
//!
//! A *chain* is a set of mutually related nodes (Definition 1); a
//! *decomposition* partitions the nodes into chains (Definition 2). By
//! Dilworth's theorem (Theorem 1, [Dil50]) the number of chains in a
//! minimum decomposition equals the maximum number of pairwise-independent
//! nodes — which for URSA is exactly the worst-case number of resource
//! instances any schedule can demand. The decomposition is computed by
//! Ford and Fulkerson's reduction to maximum bipartite matching [FoF65],
//! optionally with the paper's hammock-priority staging.

use crate::dag::NodeId;
use crate::matching::{staged_matching_metered, IncrementalMatcher};
use crate::meter::{Unmetered, WorkMeter};

/// A decomposition of a node subset into chains, each ordered head → tail.
///
/// # Examples
///
/// ```
/// use ursa_graph::chains::decompose;
/// use ursa_graph::dag::NodeId;
///
/// // Partial order: 0 < 1 < 2, node 3 incomparable to everything.
/// let nodes: Vec<NodeId> = (0..4).map(NodeId::from).collect();
/// let d = decompose(&nodes, |a, b| a.0 < b.0 && b.0 != 3 && a.0 != 3);
/// assert_eq!(d.num_chains(), 2); // {0,1,2} and {3}
/// ```
#[derive(Clone, Debug)]
pub struct ChainDecomposition {
    chains: Vec<Vec<NodeId>>,
}

impl ChainDecomposition {
    /// The trivial decomposition with every node its own chain. Always a
    /// valid chain partition, but a *minimum* witness only when the
    /// nodes are pairwise independent — callers that skip the matching
    /// (a resource already known to fit) use it as a placeholder whose
    /// chains are never consulted.
    pub fn singletons(nodes: &[NodeId]) -> Self {
        ChainDecomposition {
            chains: nodes.iter().map(|&v| vec![v]).collect(),
        }
    }

    /// Number of chains — the measured resource requirement.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// The chains, each ordered head → tail.
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }

    /// Consumes the decomposition, yielding the chains.
    pub fn into_chains(self) -> Vec<Vec<NodeId>> {
        self.chains
    }

    /// Index of the chain containing `v`, if `v` was part of the
    /// decomposed node set.
    pub fn chain_of(&self, v: NodeId) -> Option<usize> {
        self.chains.iter().position(|c| c.contains(&v))
    }

    /// Total number of nodes across all chains.
    pub fn node_count(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Verifies that every consecutive pair in every chain satisfies
    /// `related`; used by tests and debug assertions.
    pub fn is_valid_under(&self, mut related: impl FnMut(NodeId, NodeId) -> bool) -> bool {
        self.chains
            .iter()
            .all(|c| c.windows(2).all(|w| related(w[0], w[1])))
    }
}

/// Enumerates a relation row by row from a pair predicate: `rows(i,
/// out)` appends every `j != i` with `related(nodes[i], nodes[j])`, in
/// ascending `j`. This is the O(k) probe-per-row adapter for callers
/// that only have a predicate; hot callers supply word-parallel rows.
fn predicate_rows<'a>(
    nodes: &'a [NodeId],
    mut related: impl FnMut(NodeId, NodeId) -> bool + 'a,
) -> impl FnMut(usize, &mut Vec<usize>) + 'a {
    move |i, out| {
        let a = nodes[i];
        out.extend(
            nodes
                .iter()
                .enumerate()
                .filter(|&(j, &b)| i != j && related(a, b))
                .map(|(j, _)| j),
        );
    }
}

/// Decomposes `nodes` into a minimum number of chains of the strict
/// partial order `can_reuse` (edges `(a, b)` with `can_reuse(a, b)` true
/// mean `b` may follow `a` in a chain).
///
/// `can_reuse` must be a strict order on `nodes` (irreflexive and
/// transitive); pairs with `a == b` are never queried.
pub fn decompose(
    nodes: &[NodeId],
    mut can_reuse: impl FnMut(NodeId, NodeId) -> bool,
) -> ChainDecomposition {
    decompose_prioritized(nodes, &mut can_reuse, |_, _| 0)
}

/// Like [`decompose`], but edges are offered to the matcher in ascending
/// `priority` tiers (the paper's modification for hammock-local
/// minimality, §3.1): an edge that stays inside one hammock gets priority
/// 0 and is preferred over edges crossing nesting levels.
pub fn decompose_prioritized(
    nodes: &[NodeId],
    can_reuse: &mut impl FnMut(NodeId, NodeId) -> bool,
    priority: impl FnMut(NodeId, NodeId) -> u32,
) -> ChainDecomposition {
    decompose_prioritized_metered(
        nodes,
        predicate_rows(nodes, can_reuse),
        priority,
        &Unmetered,
    )
}

/// [`decompose_prioritized`] over a relation given row by row, with a
/// cooperative [`WorkMeter`]; the one implementation behind every
/// decomposition. `rows(i, out)` must append the member indices `j`
/// with `nodes[i] → nodes[j]` in the relation, ascending and without
/// `i` itself; each row is charged `nodes.len()` units before it is
/// built.
///
/// If the meter exhausts mid-matching the decomposition is still a
/// valid chain partition, just possibly not minimum — it *over-counts*
/// the requirement, which is the conservative direction for URSA (a
/// resource is never reported to fit when some schedule could exceed
/// it).
pub fn decompose_prioritized_metered(
    nodes: &[NodeId],
    mut rows: impl FnMut(usize, &mut Vec<usize>),
    mut priority: impl FnMut(NodeId, NodeId) -> u32,
    meter: &dyn WorkMeter,
) -> ChainDecomposition {
    let k = nodes.len();
    let mut edges: Vec<(usize, usize, u32)> = Vec::new();
    let mut row = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        // One row-granular checkpoint per relation row; on exhaustion
        // the remaining rows are dropped, which can only shrink the
        // matching and thus over-state the requirement (conservative).
        if !meter.charge(k as u64) {
            break;
        }
        row.clear();
        rows(i, &mut row);
        edges.extend(row.iter().map(|&j| (i, j, priority(a, nodes[j]))));
    }
    let m = staged_matching_metered(k, k, &edges, meter);

    // Chain heads are the nodes never matched on the right side.
    let mut chains = Vec::with_capacity(k - m.len());
    for (j, &pred) in m.right_to_left.iter().enumerate() {
        if pred.is_none() {
            let mut chain = Vec::new();
            let mut cur = Some(j);
            while let Some(i) = cur {
                chain.push(nodes[i]);
                cur = m.left_to_right[i];
            }
            chains.push(chain);
        }
    }
    debug_assert_eq!(
        chains.iter().map(Vec::len).sum::<usize>(),
        k,
        "chains partition the node set"
    );
    ChainDecomposition { chains }
}

/// Extracts a maximum antichain — a largest set of pairwise-independent
/// nodes — witnessing Dilworth's equality (Theorem 1): its size equals
/// the chain count of [`decompose`].
///
/// Uses König's theorem on the Ford–Fulkerson bipartite graph: from a
/// maximum matching, the minimum vertex cover is computed via alternating
/// paths, and the antichain consists of the nodes neither of whose copies
/// is in the cover.
pub fn max_antichain(nodes: &[NodeId], related: impl FnMut(NodeId, NodeId) -> bool) -> Vec<NodeId> {
    max_antichain_rows(nodes, predicate_rows(nodes, related))
}

/// [`max_antichain`] over a relation given row by row, under the same
/// row contract as [`decompose_prioritized_metered`].
pub fn max_antichain_rows(
    nodes: &[NodeId],
    rows: impl FnMut(usize, &mut Vec<usize>),
) -> Vec<NodeId> {
    let k = nodes.len();
    let mut matcher = IncrementalMatcher::from_rows(k, rows);
    let matched = matcher.maximize();
    // Minimum vertex cover = (L \ Z) ∪ (R ∩ Z); antichain = nodes with
    // neither copy in the cover.
    let antichain: Vec<NodeId> = matcher
        .konig_independent_set()
        .into_iter()
        .map(|i| nodes[i])
        .collect();
    debug_assert_eq!(
        antichain.len(),
        k - matched,
        "antichain size equals minimum chain count"
    );
    antichain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Dag, EdgeKind};
    use crate::reach::Reachability;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from).collect()
    }

    /// Largest antichain by brute force (exponential; tiny inputs only).
    fn brute_force_width(nodes: &[NodeId], related: impl Fn(NodeId, NodeId) -> bool) -> usize {
        let n = nodes.len();
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let subset: Vec<NodeId> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| nodes[i])
                .collect();
            let antichain = subset.iter().enumerate().all(|(x, &a)| {
                subset
                    .iter()
                    .skip(x + 1)
                    .all(|&b| !related(a, b) && !related(b, a))
            });
            if antichain {
                best = best.max(subset.len());
            }
        }
        best
    }

    #[test]
    fn total_order_is_one_chain() {
        let nodes = ids(5);
        let d = decompose(&nodes, |a, b| a.0 < b.0);
        assert_eq!(d.num_chains(), 1);
        assert_eq!(d.chains()[0].len(), 5);
        assert!(d.is_valid_under(|a, b| a.0 < b.0));
    }

    #[test]
    fn antichain_is_singleton_chains() {
        let nodes = ids(4);
        let d = decompose(&nodes, |_, _| false);
        assert_eq!(d.num_chains(), 4);
        assert!(d.chains().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn paper_figure2_dag_width_is_four() {
        // Figure 2(b): A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 J=9 K=10.
        let mut g = Dag::new(11);
        let e = [
            (0, 1),
            (0, 2),
            (0, 3), // A -> B, C, D
            (1, 4),
            (1, 5),
            (2, 4),
            (2, 5), // B,C -> E,F
            (3, 6),
            (3, 7), // D -> G, H
            (4, 8),
            (5, 8), // E,F -> I
            (6, 9),
            (7, 9), // G,H -> J
            (8, 10),
            (9, 10), // I,J -> K
        ];
        for (a, b) in e {
            g.add_edge(NodeId(a), NodeId(b), EdgeKind::Data);
        }
        let r = Reachability::of(&g);
        let nodes = ids(11);
        let d = decompose(&nodes, |a, b| r.reaches(a, b));
        assert_eq!(
            d.num_chains(),
            4,
            "paper: minimal decomposition has 4 chains"
        );
        assert!(d.is_valid_under(|a, b| r.reaches(a, b)));
    }

    #[test]
    fn chain_count_equals_brute_force_width() {
        // Random small DAG partial orders.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let n = (next() % 7 + 1) as usize;
            let mut g = Dag::new(n);
            for i in 0..n {
                for j in i + 1..n {
                    if next() % 3 == 0 {
                        g.add_edge(NodeId::from(i), NodeId::from(j), EdgeKind::Data);
                    }
                }
            }
            let r = Reachability::of(&g);
            let nodes = ids(n);
            let d = decompose(&nodes, |a, b| r.reaches(a, b));
            let width = brute_force_width(&nodes, |a, b| r.reaches(a, b));
            assert_eq!(d.num_chains(), width, "Dilworth equality violated");
            assert!(d.is_valid_under(|a, b| r.reaches(a, b)));
        }
    }

    #[test]
    fn subset_decomposition_only_touches_subset() {
        let nodes = vec![NodeId(2), NodeId(5), NodeId(9)];
        let d = decompose(&nodes, |a, b| a.0 < b.0);
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.num_chains(), 1);
        assert_eq!(d.chain_of(NodeId(5)), Some(0));
        assert_eq!(d.chain_of(NodeId(3)), None);
    }

    #[test]
    fn prioritized_decomposition_still_minimum() {
        let nodes = ids(6);
        let rel = |a: NodeId, b: NodeId| a.0 < b.0 && (b.0 - a.0) % 2 == 1;
        let d0 = decompose(&nodes, rel);
        let mut rel2 = rel;
        let dp = decompose_prioritized(&nodes, &mut rel2, |a, b| b.0 - a.0);
        assert_eq!(d0.num_chains(), dp.num_chains());
        assert!(dp.is_valid_under(rel));
    }

    #[test]
    fn exhausted_meter_overcounts_but_partitions() {
        use crate::meter::FixedMeter;
        let nodes = ids(6);
        let rel = |a: NodeId, b: NodeId| a.0 < b.0;
        let full = decompose(&nodes, rel);
        assert_eq!(full.num_chains(), 1);
        for units in 0..40 {
            let d = decompose_prioritized_metered(
                &nodes,
                predicate_rows(&nodes, rel),
                |_, _| 0,
                &FixedMeter::new(units),
            );
            // Always a valid chain partition of all six nodes...
            assert_eq!(d.node_count(), 6);
            assert!(d.is_valid_under(rel));
            // ...that never under-counts the requirement.
            assert!(d.num_chains() >= full.num_chains());
        }
    }

    #[test]
    fn empty_node_set() {
        let d = decompose(&[], |_, _| true);
        assert_eq!(d.num_chains(), 0);
        assert_eq!(d.node_count(), 0);
    }

    #[test]
    fn antichain_members_are_pairwise_independent() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let n = (next() % 8 + 1) as usize;
            let mut g = Dag::new(n);
            for i in 0..n {
                for j in i + 1..n {
                    if next() % 3 == 0 {
                        g.add_edge(NodeId::from(i), NodeId::from(j), EdgeKind::Data);
                    }
                }
            }
            let r = Reachability::of(&g);
            let nodes = ids(n);
            let a = max_antichain(&nodes, |x, y| r.reaches(x, y));
            for (i, &x) in a.iter().enumerate() {
                for &y in &a[i + 1..] {
                    assert!(r.independent(x, y), "{x} and {y} must be independent");
                }
            }
            let d = decompose(&nodes, |x, y| r.reaches(x, y));
            assert_eq!(a.len(), d.num_chains(), "Dilworth equality");
        }
    }

    #[test]
    fn antichain_of_total_order_is_singleton() {
        let nodes = ids(5);
        let a = max_antichain(&nodes, |x, y| x.0 < y.0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn antichain_of_empty_relation_is_everything() {
        let nodes = ids(4);
        let a = max_antichain(&nodes, |_, _| false);
        assert_eq!(a.len(), 4);
    }
}
