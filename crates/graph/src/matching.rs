//! Maximum bipartite matching.
//!
//! Ford and Fulkerson's transformation (paper §3.1, [FoF65]) reduces
//! minimum chain decomposition of a partial order to maximum matching in a
//! bipartite graph whose left and right vertex classes are both copies of
//! the node set and whose edges are the pairs of the `CanReuse` relation.
//! Each matched pair `(a, b)` links `a`'s chain to continue at `b`; with a
//! maximum matching the number of chains `n − |M|` is minimal.
//!
//! Two engines are provided:
//!
//! * [`hopcroft_karp`] — the O(E·√V) algorithm, used when any maximum
//!   matching will do.
//! * [`IncrementalMatcher`] — warm-start augmentation that accepts edges
//!   in batches while preserving the matching found so far.
//!   This implements the paper's *modified* algorithm: edges are added in
//!   priority tiers (by hammock-nesting-level difference) and augmentation
//!   is re-run after each tier (by the same Hopcroft–Karp phase loop,
//!   started from the carried matching), so earlier tiers are preferred.
//!   Worst case O(V·E) ⊆ O(N³) for dense relations, matching the paper's
//!   bound.

use crate::meter::{Unmetered, WorkMeter};

/// A matching between `n_left` left vertices and `n_right` right vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// `left_to_right[l]` is the right partner of `l`, if matched.
    pub left_to_right: Vec<Option<usize>>,
    /// `right_to_left[r]` is the left partner of `r`, if matched.
    pub right_to_left: Vec<Option<usize>>,
}

impl Matching {
    /// An empty matching over the given class sizes.
    pub fn empty(n_left: usize, n_right: usize) -> Self {
        Matching {
            left_to_right: vec![None; n_left],
            right_to_left: vec![None; n_right],
        }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.left_to_right.iter().filter(|p| p.is_some()).count()
    }

    /// `true` if nothing is matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks internal consistency: the two direction maps must mirror
    /// each other exactly. Used by tests and debug assertions.
    pub fn is_consistent(&self) -> bool {
        self.left_to_right
            .iter()
            .enumerate()
            .all(|(l, &r)| match r {
                Some(r) => self.right_to_left.get(r).copied().flatten() == Some(l),
                None => true,
            })
            && self
                .right_to_left
                .iter()
                .enumerate()
                .all(|(r, &l)| match l {
                    Some(l) => self.left_to_right.get(l).copied().flatten() == Some(r),
                    None => true,
                })
    }
}

/// Computes a maximum matching with the Hopcroft–Karp algorithm.
///
/// `adj[l]` lists the right-vertices adjacent to left-vertex `l`.
///
/// # Examples
///
/// ```
/// use ursa_graph::matching::hopcroft_karp;
///
/// // A perfect matching on a 2x2 crown.
/// let adj = vec![vec![0, 1], vec![0]];
/// let m = hopcroft_karp(2, 2, &adj);
/// assert_eq!(m.len(), 2);
/// ```
///
/// # Panics
///
/// Panics if any adjacency entry is out of range.
pub fn hopcroft_karp(n_left: usize, n_right: usize, adj: &[Vec<usize>]) -> Matching {
    assert_eq!(adj.len(), n_left, "one adjacency list per left vertex");
    for (l, row) in adj.iter().enumerate() {
        for &r in row {
            assert!(r < n_right, "right vertex {r} out of range (edge from {l})");
        }
    }
    let mut m = Matching::empty(n_left, n_right);
    hk_phases(adj, &mut m, &Unmetered);
    debug_assert!(m.is_consistent());
    m
}

/// [`hopcroft_karp`] with a cooperative [`WorkMeter`]: if the meter
/// exhausts between augmentation phases, the returned matching is valid
/// and consistent but possibly sub-maximum.
///
/// # Panics
///
/// Panics if any adjacency entry is out of range.
pub fn hopcroft_karp_metered(
    n_left: usize,
    n_right: usize,
    adj: &[Vec<usize>],
    meter: &dyn WorkMeter,
) -> Matching {
    assert_eq!(adj.len(), n_left, "one adjacency list per left vertex");
    for (l, row) in adj.iter().enumerate() {
        for &r in row {
            assert!(r < n_right, "right vertex {r} out of range (edge from {l})");
        }
    }
    let mut m = Matching::empty(n_left, n_right);
    hk_phases(adj, &mut m, meter);
    debug_assert!(m.is_consistent());
    m
}

/// Runs Hopcroft–Karp BFS/DFS phases over `adj` until `m` is maximum —
/// or until `meter` exhausts, in which case `m` is left a valid,
/// consistent, possibly sub-maximum matching (the augmentation-phase
/// cancellation point: a smaller matching measures a strictly *higher*
/// chain count, so early exit is always conservative for URSA).
///
/// Warm-start safe: `m` may already hold a partial matching (e.g. one
/// carried across incremental edits); phases only ever *augment*, so
/// cardinality never decreases and the O(E√V) phase bound still holds.
/// When no augmenting path exists, a single O(E) BFS proves it for every
/// free left vertex at once. The meter is charged once per phase, with
/// the number of left vertices as the unit weight.
fn hk_phases(adj: &[Vec<usize>], m: &mut Matching, meter: &dyn WorkMeter) {
    const INF: u32 = u32::MAX;
    let n_left = adj.len();
    let mut dist = vec![INF; n_left];
    let mut queue = Vec::with_capacity(n_left);

    loop {
        if !meter.charge(1 + n_left as u64) {
            break;
        }
        // BFS phase: layer the free left vertices.
        queue.clear();
        for (l, d) in dist.iter_mut().enumerate() {
            if m.left_to_right[l].is_none() {
                *d = 0;
                queue.push(l);
            } else {
                *d = INF;
            }
        }
        let mut found_augmenting = false;
        let mut head = 0;
        while head < queue.len() {
            let l = queue[head];
            head += 1;
            for &r in &adj[l] {
                match m.right_to_left[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find a maximal set of vertex-disjoint shortest
        // augmenting paths.
        fn dfs(l: usize, adj: &[Vec<usize>], m: &mut Matching, dist: &mut [u32]) -> bool {
            for i in 0..adj[l].len() {
                let r = adj[l][i];
                let advance = match m.right_to_left[r] {
                    None => true,
                    Some(l2) => dist[l2] == dist[l] + 1 && dfs(l2, adj, m, dist),
                };
                if advance {
                    m.left_to_right[l] = Some(r);
                    m.right_to_left[r] = Some(l);
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n_left {
            if m.left_to_right[l].is_none() && dist[l] == 0 {
                dfs(l, adj, m, &mut dist);
            }
        }
    }
}

/// Maximum matching with incremental edge insertion.
///
/// The paper's hammock-aware decomposition (§3.1) adds bipartite edges in
/// sets of decreasing priority and re-runs the "normal augmenting path
/// matching algorithm" after each set, so that the final maximum matching
/// prefers high-priority edges wherever possible. `IncrementalMatcher`
/// keeps the matching across [`IncrementalMatcher::add_edge`] /
/// [`IncrementalMatcher::maximize`] rounds to realize exactly that;
/// `maximize` warm-starts the Hopcroft–Karp phase loop from the carried
/// matching, so each round costs O(E·√V) instead of one Kuhn DFS per
/// unmatched vertex.
///
/// # Examples
///
/// ```
/// use ursa_graph::matching::IncrementalMatcher;
///
/// let mut m = IncrementalMatcher::new(2, 2);
/// m.add_edge(0, 0);
/// assert_eq!(m.maximize(), 1);
/// m.add_edge(0, 1);
/// m.add_edge(1, 0);
/// assert_eq!(m.maximize(), 2);
/// // Vertex 0's original high-priority partner may move, but the first
/// // tier's cardinality is never sacrificed.
/// assert_eq!(m.matching().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalMatcher {
    n_right: usize,
    adj: Vec<Vec<usize>>,
    matching: Matching,
}

impl IncrementalMatcher {
    /// Creates a matcher over empty vertex classes of the given sizes.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        IncrementalMatcher {
            n_right,
            adj: vec![Vec::new(); n_left],
            matching: Matching::empty(n_left, n_right),
        }
    }

    /// A matcher over `n × n` vertices whose row `l` holds what
    /// `rows(l, out)` appends, loaded with
    /// [`IncrementalMatcher::add_edge_unchecked`] (rows must not repeat
    /// a vertex). Nothing is matched yet.
    pub fn from_rows(n: usize, mut rows: impl FnMut(usize, &mut Vec<usize>)) -> Self {
        let mut matcher = IncrementalMatcher::new(n, n);
        let mut row = Vec::new();
        for l in 0..n {
            row.clear();
            rows(l, &mut row);
            for &r in &row {
                matcher.add_edge_unchecked(l, r);
            }
        }
        matcher
    }

    /// Inserts the edge `(l, r)`. Duplicates are ignored; returns `true`
    /// when the edge was actually new (callers journaling edits for a
    /// later revert use this to know whether the row grew).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) -> bool {
        assert!(l < self.adj.len(), "left vertex {l} out of range");
        assert!(r < self.n_right, "right vertex {r} out of range");
        if self.adj[l].contains(&r) {
            false
        } else {
            self.adj[l].push(r);
            true
        }
    }

    /// [`Self::add_edge`] without the duplicate scan — the scan is
    /// O(degree) per call, which turns bulk loading of a dense relation
    /// into O(Σ degree²). Callers must guarantee `(l, r)` has not been
    /// inserted before (e.g. enumeration of distinct index pairs); a
    /// duplicate would let augmentation revisit the edge pointlessly
    /// but never produce an inconsistent matching.
    pub fn add_edge_unchecked(&mut self, l: usize, r: usize) {
        assert!(l < self.adj.len(), "left vertex {l} out of range");
        assert!(r < self.n_right, "right vertex {r} out of range");
        self.adj[l].push(r);
    }

    /// Number of left vertices.
    pub fn n_left(&self) -> usize {
        self.adj.len()
    }

    /// Number of right vertices.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// The current adjacency row of left vertex `l`.
    pub fn row(&self, l: usize) -> &[usize] {
        &self.adj[l]
    }

    /// Replaces the adjacency row of `l` wholesale, returning the old
    /// row. If `l` was matched to a right vertex the new row no longer
    /// contains, the pair is dissolved (the matching stays consistent but
    /// may drop below maximum — call [`IncrementalMatcher::maximize`]
    /// afterwards).
    ///
    /// # Panics
    ///
    /// Panics if any right vertex in `row` is out of range.
    pub fn set_row(&mut self, l: usize, row: Vec<usize>) -> Vec<usize> {
        for &r in &row {
            assert!(r < self.n_right, "right vertex {r} out of range");
        }
        if let Some(r) = self.matching.left_to_right[l] {
            if !row.contains(&r) {
                self.matching.left_to_right[l] = None;
                self.matching.right_to_left[r] = None;
            }
        }
        std::mem::replace(&mut self.adj[l], row)
    }

    /// Truncates the adjacency row of `l` back to `len` entries,
    /// dissolving `l`'s pair if its partner falls off the end. This is
    /// the exact inverse of a run of successful
    /// [`IncrementalMatcher::add_edge`] calls on `l` (appends preserve
    /// prefix order), so reverting an edit needs only the old length.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current row length.
    pub fn truncate_row(&mut self, l: usize, len: usize) {
        assert!(len <= self.adj[l].len(), "cannot grow a row by truncation");
        if let Some(r) = self.matching.left_to_right[l] {
            if !self.adj[l][..len].contains(&r) {
                self.matching.left_to_right[l] = None;
                self.matching.right_to_left[r] = None;
            }
        }
        self.adj[l].truncate(len);
    }

    /// Dissolves `l`'s matched pair, if any.
    pub fn unmatch_left(&mut self, l: usize) {
        if let Some(r) = self.matching.left_to_right[l].take() {
            self.matching.right_to_left[r] = None;
        }
    }

    /// Replaces the current matching wholesale (used to restore a
    /// snapshot when reverting a batch of edits).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's class sizes disagree with the matcher's,
    /// or if any matched edge is absent from the current adjacency.
    pub fn restore_matching(&mut self, m: Matching) {
        assert_eq!(m.left_to_right.len(), self.adj.len(), "left size mismatch");
        assert_eq!(m.right_to_left.len(), self.n_right, "right size mismatch");
        debug_assert!(m.is_consistent());
        debug_assert!(
            m.left_to_right
                .iter()
                .enumerate()
                .all(|(l, r)| r.is_none_or(|r| self.adj[l].contains(&r))),
            "restored matching uses an edge absent from the adjacency"
        );
        self.matching = m;
    }

    /// Augments until maximum over the edges inserted so far; returns the
    /// matching cardinality. Previously matched pairs may be re-routed but
    /// cardinality never decreases.
    ///
    /// Runs Hopcroft–Karp phases warm-started from the carried matching:
    /// when an edit leaves most pairs intact, only the freed vertices are
    /// re-augmented, and a single BFS certifies maximality for all of
    /// them together — per-free-vertex O(E) scans would dominate
    /// incremental probes on large dense reuse graphs.
    pub fn maximize(&mut self) -> usize {
        hk_phases(&self.adj, &mut self.matching, &Unmetered);
        debug_assert!(self.matching.is_consistent());
        self.matching.len()
    }

    /// [`IncrementalMatcher::maximize`] with a cooperative [`WorkMeter`].
    /// If the meter exhausts between augmentation phases the carried
    /// matching stays valid and consistent but may be sub-maximum;
    /// `charge(0)` on the meter tells the caller which case occurred.
    pub fn maximize_metered(&mut self, meter: &dyn WorkMeter) -> usize {
        hk_phases(&self.adj, &mut self.matching, meter);
        debug_assert!(self.matching.is_consistent());
        self.matching.len()
    }

    /// Extracts a maximum independent set of *nodes* (König's theorem)
    /// from the carried matching, as indices into the shared left/right
    /// vertex class: alternating-path reachability from the unmatched
    /// left vertices yields a minimum vertex cover, and the returned
    /// indices are exactly those with neither copy in the cover.
    ///
    /// For URSA's Dilworth setup (left and right classes are both copies
    /// of the same node set, edges are the comparability relation) the
    /// result is a maximum antichain of size `n − |M|` — **provided the
    /// matching is currently maximum** (call
    /// [`IncrementalMatcher::maximize`] first). On a sub-maximum matching
    /// the set may contain comparable pairs and its size overestimates
    /// the true width; callers that stopped `maximize_metered` early must
    /// treat it accordingly.
    pub fn konig_independent_set(&self) -> Vec<usize> {
        let k = self.adj.len();
        let m = &self.matching;
        let mut left_z = vec![false; k];
        let mut right_z = vec![false; self.n_right];
        let mut stack: Vec<usize> = (0..k).filter(|&l| m.left_to_right[l].is_none()).collect();
        for &l in &stack {
            left_z[l] = true;
        }
        while let Some(l) = stack.pop() {
            for &r in &self.adj[l] {
                if m.left_to_right[l] == Some(r) || right_z[r] {
                    continue;
                }
                right_z[r] = true;
                if let Some(l2) = m.right_to_left[r] {
                    if !left_z[l2] {
                        left_z[l2] = true;
                        stack.push(l2);
                    }
                }
            }
        }
        (0..k)
            .filter(|&i| left_z[i] && !right_z.get(i).copied().unwrap_or(false))
            .collect()
    }

    /// The matching accumulated so far.
    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// Consumes the matcher, returning the matching.
    pub fn into_matching(self) -> Matching {
        self.matching
    }
}

/// Runs the paper's staged matching: edges are grouped by ascending
/// `priority`, each group is inserted, and the matching is maximized
/// before the next group is admitted.
///
/// Lower priority values are preferred (priority 0 = edges that do not
/// cross a hammock boundary). The result is a maximum matching of the
/// whole edge set that maximizes use of lower-priority edges tier by tier.
///
/// # Examples
///
/// ```
/// use ursa_graph::matching::staged_matching;
///
/// // Edge (0,0) has priority 0, (1,0) priority 1: the tier-0 edge wins
/// // the shared right vertex and (1,0) stays unmatched.
/// let m = staged_matching(2, 1, &[(0, 0, 0), (1, 0, 1)]);
/// assert_eq!(m.left_to_right[0], Some(0));
/// assert_eq!(m.left_to_right[1], None);
/// ```
pub fn staged_matching(n_left: usize, n_right: usize, edges: &[(usize, usize, u32)]) -> Matching {
    staged_matching_metered(n_left, n_right, edges, &Unmetered)
}

/// [`staged_matching`] with a cooperative [`WorkMeter`]. All edges are
/// always admitted (insertion is cheap and keeps tier preference
/// deterministic); only the augmentation work between tiers is metered,
/// so on exhaustion the result is a valid but possibly sub-maximum
/// matching of the full edge set.
pub fn staged_matching_metered(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, u32)],
    meter: &dyn WorkMeter,
) -> Matching {
    // One stable sort instead of a rescan of all edges per tier: the
    // per-tier insertion order (and therefore the matching) is
    // identical, but the setup cost drops from O(tiers × edges) to
    // O(edges log edges).
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    order.sort_by_key(|&i| edges[i as usize].2);
    let mut matcher = IncrementalMatcher::new(n_left, n_right);
    let mut idx = 0;
    while idx < order.len() {
        let tier = edges[order[idx] as usize].2;
        while idx < order.len() {
            let (l, r, p) = edges[order[idx] as usize];
            if p != tier {
                break;
            }
            // The caller's edge list enumerates distinct pairs.
            matcher.add_edge_unchecked(l, r);
            idx += 1;
        }
        matcher.maximize_metered(meter);
    }
    matcher.into_matching()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force maximum matching by trying all subsets (tiny inputs).
    fn brute_force_max(n_left: usize, n_right: usize, edges: &[(usize, usize)]) -> usize {
        fn rec(edges: &[(usize, usize)], used_l: &mut Vec<bool>, used_r: &mut Vec<bool>) -> usize {
            if edges.is_empty() {
                return 0;
            }
            let (l, r) = edges[0];
            let skip = rec(&edges[1..], used_l, used_r);
            if !used_l[l] && !used_r[r] {
                used_l[l] = true;
                used_r[r] = true;
                let take = 1 + rec(&edges[1..], used_l, used_r);
                used_l[l] = false;
                used_r[r] = false;
                skip.max(take)
            } else {
                skip
            }
        }
        rec(edges, &mut vec![false; n_left], &mut vec![false; n_right])
    }

    fn to_adj(n_left: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n_left];
        for &(l, r) in edges {
            adj[l].push(r);
        }
        adj
    }

    #[test]
    fn perfect_matching_found() {
        let edges = [(0, 1), (1, 0), (2, 2)];
        let m = hopcroft_karp(3, 3, &to_adj(3, &edges));
        assert_eq!(m.len(), 3);
        assert!(m.is_consistent());
    }

    #[test]
    fn empty_graph_matches_nothing() {
        let m = hopcroft_karp(3, 3, &vec![Vec::new(); 3]);
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn hopcroft_karp_agrees_with_brute_force() {
        // Deterministic pseudo-random small graphs.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60 {
            let n_left = (next() % 5 + 1) as usize;
            let n_right = (next() % 5 + 1) as usize;
            let n_edges = (next() % 10) as usize;
            let mut edges = Vec::new();
            for _ in 0..n_edges {
                edges.push(((next() as usize) % n_left, (next() as usize) % n_right));
            }
            edges.sort_unstable();
            edges.dedup();
            let expect = brute_force_max(n_left, n_right, &edges);
            let got = hopcroft_karp(n_left, n_right, &to_adj(n_left, &edges)).len();
            assert_eq!(got, expect, "edges {edges:?}");
        }
    }

    #[test]
    fn incremental_matches_hopcroft_karp_cardinality() {
        let edges = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)];
        let mut inc = IncrementalMatcher::new(4, 4);
        for &(l, r) in &edges {
            inc.add_edge(l, r);
        }
        let hk = hopcroft_karp(4, 4, &to_adj(4, &edges));
        assert_eq!(inc.maximize(), hk.len());
    }

    #[test]
    fn incremental_addition_preserves_cardinality_growth() {
        let mut m = IncrementalMatcher::new(3, 3);
        m.add_edge(0, 0);
        m.add_edge(1, 0);
        assert_eq!(m.maximize(), 1);
        m.add_edge(1, 1);
        assert_eq!(m.maximize(), 2);
        m.add_edge(2, 2);
        assert_eq!(m.maximize(), 3);
    }

    #[test]
    fn staged_prefers_low_priority_tier() {
        // Both left vertices want right 0; the tier-0 edge is kept matched
        // to r0 even after tier 1 arrives with an alternative for l0.
        let m = staged_matching(2, 2, &[(0, 0, 0), (0, 1, 1), (1, 0, 1)]);
        assert_eq!(m.len(), 2);
        // Maximum cardinality requires l0-r1 OR l0-r0/l1 unmatched; the
        // staged algorithm re-routes l0 to r1 so l1 can use r0 — but only
        // because that keeps every tier-0 edge's cardinality intact.
        assert!(m.is_consistent());
    }

    #[test]
    fn staged_total_cardinality_is_maximum() {
        let edges = [(0usize, 0usize, 2u32), (0, 1, 0), (1, 1, 1), (2, 0, 1)];
        let m = staged_matching(3, 2, &edges);
        let plain: Vec<(usize, usize)> = edges.iter().map(|&(l, r, _)| (l, r)).collect();
        let expect = brute_force_max(3, 2, &plain);
        assert_eq!(m.len(), expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        IncrementalMatcher::new(1, 1).add_edge(0, 5);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut m = IncrementalMatcher::new(1, 1);
        assert!(m.add_edge(0, 0));
        assert!(!m.add_edge(0, 0));
        assert_eq!(m.maximize(), 1);
    }

    #[test]
    fn set_row_dissolves_lost_partner_and_returns_old_row() {
        let mut m = IncrementalMatcher::new(2, 2);
        m.add_edge(0, 0);
        m.add_edge(1, 1);
        assert_eq!(m.maximize(), 2);
        let old = m.set_row(0, vec![1]);
        assert_eq!(old, vec![0]);
        // 0 lost its partner; 1 keeps r1.
        assert_eq!(m.matching().left_to_right[0], None);
        assert_eq!(m.matching().right_to_left[0], None);
        assert_eq!(m.matching().left_to_right[1], Some(1));
        assert!(m.matching().is_consistent());
        // Maximizing re-routes: 0 takes r1, 1 is pushed nowhere (1's row
        // is still [1]) — cardinality over the new edge set is 1.
        assert_eq!(m.maximize(), 1);
    }

    #[test]
    fn truncate_row_reverts_appends_exactly() {
        let mut m = IncrementalMatcher::new(2, 3);
        m.add_edge(0, 0);
        m.add_edge(1, 1);
        m.maximize();
        let before_rows: Vec<Vec<usize>> = (0..2).map(|l| m.row(l).to_vec()).collect();
        let snapshot = m.matching().clone();
        let old_len = m.row(0).len();
        assert!(m.add_edge(0, 2));
        m.maximize();
        m.truncate_row(0, old_len);
        m.restore_matching(snapshot.clone());
        for (l, row) in before_rows.iter().enumerate() {
            assert_eq!(m.row(l), row.as_slice(), "row {l}");
        }
        assert_eq!(*m.matching(), snapshot);
        assert_eq!(m.maximize(), 2);
    }

    #[test]
    fn edit_revert_edit_revert_keeps_matcher_exact() {
        // Revert-after-revert: two independent probe rounds against the
        // same base must each restore the matcher bit-for-bit, and the
        // final cardinality must equal a from-scratch computation.
        let base_edges = [(0usize, 0usize), (1, 1), (2, 0), (2, 2)];
        let mut m = IncrementalMatcher::new(4, 4);
        for &(l, r) in &base_edges {
            m.add_edge(l, r);
        }
        m.maximize();
        let base_rows: Vec<Vec<usize>> = (0..4).map(|l| m.row(l).to_vec()).collect();
        let base_match = m.matching().clone();
        for probe_edges in [vec![(3usize, 3usize)], vec![(0, 3), (3, 1)]] {
            let snapshot = m.matching().clone();
            let mut journal: Vec<(usize, usize)> = Vec::new();
            for &(l, r) in &probe_edges {
                let old_len = m.row(l).len();
                if m.add_edge(l, r) {
                    journal.push((l, old_len));
                }
            }
            m.maximize();
            for &(l, old_len) in journal.iter().rev() {
                m.truncate_row(l, old_len);
            }
            m.restore_matching(snapshot);
            for (l, row) in base_rows.iter().enumerate() {
                assert_eq!(m.row(l), row.as_slice(), "row {l}");
            }
            assert_eq!(*m.matching(), base_match);
        }
        let hk = hopcroft_karp(4, 4, &to_adj(4, &base_edges));
        assert_eq!(m.maximize(), hk.len());
    }

    #[test]
    fn exhausted_meter_leaves_valid_submaximum_matching() {
        use crate::meter::FixedMeter;
        // A long alternating structure that needs several phases.
        let n = 12;
        let mut adj = vec![Vec::new(); n];
        for (l, row) in adj.iter_mut().enumerate() {
            for r in 0..n {
                if (l + r) % 3 != 1 {
                    row.push(r);
                }
            }
        }
        let full = hopcroft_karp(n, n, &adj);
        // Zero units: first phase never starts, matching stays empty.
        let starved = hopcroft_karp_metered(n, n, &adj, &FixedMeter::new(0));
        assert!(starved.is_consistent());
        assert_eq!(starved.len(), 0);
        // One phase's worth: valid, consistent, no larger than maximum.
        let partial = hopcroft_karp_metered(n, n, &adj, &FixedMeter::new(n as u64 + 1));
        assert!(partial.is_consistent());
        assert!(partial.len() <= full.len());
        // A generous meter reaches the true maximum.
        let done = hopcroft_karp_metered(n, n, &adj, &FixedMeter::new(1 << 20));
        assert_eq!(done.len(), full.len());
    }

    #[test]
    fn metered_maximize_never_decreases_cardinality() {
        use crate::meter::FixedMeter;
        let mut m = IncrementalMatcher::new(4, 4);
        for (l, r) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)] {
            m.add_edge(l, r);
        }
        let full = m.clone().maximize();
        let mut last = 0;
        for units in 0..20 {
            let mut trial = m.clone();
            let got = trial.maximize_metered(&FixedMeter::new(units));
            assert!(trial.matching().is_consistent());
            assert!(got >= last, "more budget can only help");
            assert!(got <= full);
            last = got;
        }
        assert_eq!(last, full);
    }

    #[test]
    fn konig_independent_set_witnesses_dilworth() {
        // Comparability of the order 0 < 1 < 2 with 3 incomparable:
        // width 2, so the independent set has n - |M| = 2 members.
        let mut m = IncrementalMatcher::new(4, 4);
        m.add_edge(0, 1);
        m.add_edge(0, 2);
        m.add_edge(1, 2);
        m.maximize();
        let set = m.konig_independent_set();
        assert_eq!(set.len(), 4 - m.matching().len());
        assert_eq!(set.len(), 2);
        // Members must be pairwise incomparable: 3 plus one of {0,1,2}.
        assert!(set.contains(&3));
    }

    #[test]
    fn unmatch_left_frees_both_sides() {
        let mut m = IncrementalMatcher::new(2, 2);
        m.add_edge(0, 0);
        m.add_edge(1, 0);
        assert_eq!(m.maximize(), 1);
        m.unmatch_left(0);
        m.unmatch_left(0); // idempotent
        assert!(m.matching().is_empty());
        assert!(m.matching().is_consistent());
        assert_eq!(m.maximize(), 1);
    }

    #[test]
    fn set_row_then_maximize_matches_scratch() {
        // Replace rows repeatedly (the engine does this when a producer's
        // killer changes) and check cardinality against Hopcroft–Karp on
        // the final edge set.
        let mut m = IncrementalMatcher::new(3, 3);
        m.add_edge(0, 0);
        m.add_edge(1, 0);
        m.add_edge(2, 2);
        m.maximize();
        m.set_row(0, vec![1, 2]);
        m.set_row(1, vec![0, 1]);
        m.maximize();
        let adj = vec![vec![1, 2], vec![0, 1], vec![2]];
        let hk = hopcroft_karp(3, 3, &adj);
        assert_eq!(m.matching().len(), hk.len());
        assert!(m.matching().is_consistent());
    }
}
