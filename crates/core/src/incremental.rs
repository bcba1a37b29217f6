//! Incremental re-measurement for the reduce loop (paper §5).
//!
//! The reduce loop's discipline is *tentatively apply → re-measure →
//! revert*, and a tentative transformation only ever adds a handful of
//! sequence edges. Rebuilding the `CanReuse` adjacency and re-running a
//! from-scratch maximum matching for every probe is what makes
//! allocation cost grow ≈N³·³ (EXPERIMENTS.md T4). This module keeps
//! all of that state alive across probes and updates it by deltas:
//!
//! * **Reachability** — [`CtxTxn`] inserts sequence edges through
//!   [`Reachability::add_edge_logged`], which records exactly the pairs
//!   that became reachable; rollback unsets those pairs. Reachability
//!   under edge insertion is monotone, so the undo is exact.
//! * **Reuse DAGs and matchings** — [`IncrementalEngine`] holds one
//!   [`IncrementalMatcher`] per machine resource, primed against the
//!   base context. A probe journals row edits (new `CanReuse` pairs
//!   from the reachability delta; wholesale row resets where the
//!   `Kill()` selection changed), re-augments from the free vertices
//!   only, and reverts the journal afterwards.
//! * **Hammocks** — the context's hammock analysis is memoized by DAG
//!   fingerprint (see `ursa_graph::hammock::HammockCache`); a rolled
//!   back probe restores the fingerprint, so the base analysis is never
//!   recomputed between probes.
//!
//! The register `CanReuse` relation is *not* monotone under edge
//! insertion: `CanReuse(a, b) ⇔ b = Kill(a) ∨ Kill(a) ≤ b`, and adding
//! edges can move `Kill(a)` (a use that was maximal may become an
//! ancestor of another use). The engine therefore re-derives kills per
//! probe through a maintained [`KillSelector`] — only producers whose
//! maximal-use set intersects the reachability delta can change, so the
//! common local probe is O(delta) — and resets exactly the matcher rows
//! whose killer moved; rows with an unchanged killer can only *gain*
//! pairs, which the reachability delta enumerates.
//!
//! Everything here is scoring-exact: every maximum matching of a
//! relation has the same cardinality, so the incremental requirement
//! counts equal the from-scratch counts bit for bit, and the reduce
//! loop makes identical decisions with the engine on or off. The
//! differential [`IncrementalEngine::probe`] check (`ParanoidMeasure`,
//! enabled by `UrsaConfig::paranoid_measure`) asserts exactly that on
//! every probe.

use crate::ctx::AllocCtx;
use crate::kill::{select_kills, KillMap, KillMode, KillSelector};
use crate::measure::{summary_fast, MeasurementSummary, ReuseRows};
use crate::resource::{Requirement, ResourceKind};
use ursa_graph::bitset::BitSet;
use ursa_graph::dag::NodeId;
use ursa_graph::matching::{IncrementalMatcher, Matching};
use ursa_graph::meter::{Unmetered, WorkMeter};
use ursa_graph::order::Levels;
use ursa_graph::reach::ReachDelta;

/// A revertible batch of sequence-edge insertions on an [`AllocCtx`].
///
/// `CtxTxn` inserts through the same path as
/// [`AllocCtx::add_sequence_edge`] but journals every effect so
/// [`CtxTxn::rollback`] restores the context exactly: the DAG edge is
/// removed (restoring the structural fingerprint), the reachability
/// delta is unset, and the levels and hammock handle captured at
/// [`CtxTxn::begin`] are put back. Insertions only invalidate the
/// levels; they are recomputed once, when the batch's critical path is
/// first read.
pub struct CtxTxn {
    journal: Vec<((NodeId, NodeId), ReachDelta)>,
    saved_levels: Option<Levels>,
    saved_hammocks: Option<std::sync::Arc<ursa_graph::hammock::HammockAnalysis>>,
}

impl CtxTxn {
    /// Opens a transaction, snapshotting what rollback must restore.
    pub fn begin(ctx: &AllocCtx<'_>) -> Self {
        CtxTxn {
            journal: Vec::new(),
            saved_levels: ctx.levels_handle(),
            saved_hammocks: ctx.hammocks_handle(),
        }
    }

    /// Adds a sequence edge under the transaction. Returns `false` (and
    /// journals nothing) if the edge is already implied.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle.
    pub fn add_sequence_edge(&mut self, ctx: &mut AllocCtx<'_>, from: NodeId, to: NodeId) -> bool {
        let Some(delta) = ctx.insert_sequence_edge(from, to, true) else {
            return false;
        };
        self.journal.push(((from, to), delta));
        true
    }

    /// The reachability deltas of the edges inserted so far, in
    /// insertion order.
    pub fn deltas(&self) -> impl Iterator<Item = &ReachDelta> {
        self.journal.iter().map(|(_, d)| d)
    }

    /// Number of edges actually inserted (implied edges not counted).
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// `true` if no edge was inserted.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// Consumes the transaction keeping every inserted edge. Levels and
    /// the hammock handle stay invalidated and are recomputed (the
    /// hammocks through the memo cache) when next read.
    pub fn commit(self) {}

    /// Undoes every insertion in LIFO order and restores the captured
    /// levels and hammock handle.
    pub fn rollback(self, ctx: &mut AllocCtx<'_>) {
        for ((from, to), delta) in self.journal.into_iter().rev() {
            ctx.remove_sequence_edge(from, to, &delta);
        }
        ctx.set_levels(self.saved_levels);
        ctx.set_hammocks(self.saved_hammocks);
    }
}

/// What one probe measured: the same shape the scratch path's
/// `summary_fast` + `critical_path()` pair produces.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    /// Per-resource requirement counts after the tentative edges.
    pub summary: MeasurementSummary,
    /// Critical path after the tentative edges (cycles).
    pub critical_path: u64,
}

/// How to revert one matcher row edit (journaled first-touch only).
enum RowUndo {
    /// The row was replaced wholesale; restore this exact row.
    Full(Vec<usize>),
    /// The row only received appends; truncate back to this length.
    Len(usize),
}

/// The journal for one resource's matcher across one probe.
struct StateUndo {
    snapshot: Matching,
    journal: Vec<(usize, RowUndo)>,
}

/// Incremental measurement state for one machine resource.
struct ResState {
    resource: ResourceKind,
    capacity: u32,
    /// The competing nodes, in `AllocCtx::resource_nodes` order; row
    /// `i` of the matcher is `nodes[i]` on both sides.
    nodes: Vec<NodeId>,
    /// Dense DAG-node-index → matcher row, `None` for non-members.
    row_of: Vec<Option<usize>>,
    /// Registers only: DAG node index of a killer → the rows whose
    /// *base* kill it is (used to route reachability-delta gains).
    killed_by: Vec<Vec<usize>>,
    matcher: IncrementalMatcher,
}

impl ResState {
    fn build(ctx: &AllocCtx<'_>, kills: &KillMap, resource: ResourceKind) -> ResState {
        let nodes = ctx.resource_nodes(resource);
        let n = ctx.ddg().dag().node_count();
        let mut row_of = vec![None; n];
        for (i, &a) in nodes.iter().enumerate() {
            row_of[a.index()] = Some(i);
        }
        let mut matcher = ReuseRows::new(ctx, kills, resource, &nodes).matcher();
        matcher.maximize();
        let mut killed_by = vec![Vec::new(); n];
        if resource == ResourceKind::Registers {
            for (i, &a) in nodes.iter().enumerate() {
                if let Some(killer) = kills.kill_of(a) {
                    killed_by[killer.index()].push(i);
                }
            }
        }
        ResState {
            resource,
            capacity: resource.capacity(ctx.machine()),
            nodes,
            row_of,
            killed_by,
            matcher,
        }
    }

    /// The current requirement: nodes minus matched pairs (Dilworth).
    fn required(&self) -> u32 {
        (self.nodes.len() - self.matcher.matching().len()) as u32
    }

    /// Applies a probe's edits to the matcher and re-augments; returns
    /// the journal needed to revert.
    fn apply<'d>(
        &mut self,
        ctx: &AllocCtx<'_>,
        base_kills: &KillMap,
        new_kills: &KillMap,
        deltas: impl Iterator<Item = &'d ReachDelta>,
        meter: &dyn WorkMeter,
    ) -> StateUndo {
        let k = self.nodes.len();
        let snapshot = self.matcher.matching().clone();
        let mut journal: Vec<(usize, RowUndo)> = Vec::new();
        // Rows already reset wholesale (skip delta routing for them).
        let mut reset = BitSet::new(k);
        // Rows with a Len journal entry already (first touch only).
        let mut len_logged = BitSet::new(k);

        if self.resource == ResourceKind::Registers {
            // Rows whose killer moved are re-read in full under the new
            // kill map; the row kernel is built once, on the first one.
            let mut reuse = None;
            for (i, &a) in self.nodes.iter().enumerate() {
                if base_kills.kill_of(a) != new_kills.kill_of(a) {
                    let reuse = reuse.get_or_insert_with(|| {
                        ReuseRows::new(ctx, new_kills, self.resource, &self.nodes)
                    });
                    let mut row = Vec::new();
                    reuse.row(i, &mut row);
                    let old = self.matcher.set_row(i, row);
                    journal.push((i, RowUndo::Full(old)));
                    reset.insert(i);
                }
            }
        }
        for delta in deltas {
            for (s, d) in delta.pairs() {
                match self.resource {
                    ResourceKind::Registers => {
                        // `s` newly reaches `d`: every row whose (still
                        // current) killer is `s` gains reuse of `d`.
                        let Some(j) = self.row_of[d.index()] else {
                            continue;
                        };
                        for &i in &self.killed_by[s.index()] {
                            if i == j || reset.contains(i) {
                                continue;
                            }
                            let old_len = self.matcher.row(i).len();
                            if self.matcher.add_edge(i, j) && len_logged.insert(i) {
                                journal.push((i, RowUndo::Len(old_len)));
                            }
                        }
                    }
                    ResourceKind::Fu(_) => {
                        // FU CanReuse *is* reachability restricted to
                        // the class: the delta pairs are the new edges.
                        let (Some(i), Some(j)) = (self.row_of[s.index()], self.row_of[d.index()])
                        else {
                            continue;
                        };
                        let old_len = self.matcher.row(i).len();
                        if self.matcher.add_edge(i, j) && len_logged.insert(i) {
                            journal.push((i, RowUndo::Len(old_len)));
                        }
                    }
                }
            }
        }
        self.matcher.maximize_metered(meter);
        StateUndo { snapshot, journal }
    }

    /// Re-derives the `killed_by` routing map after the base kill map
    /// changed (on adoption; probes never touch it).
    fn rebase_kills(&mut self, kills: &KillMap) {
        if self.resource != ResourceKind::Registers {
            return;
        }
        for rows in &mut self.killed_by {
            rows.clear();
        }
        for (i, &a) in self.nodes.iter().enumerate() {
            if let Some(k) = kills.kill_of(a) {
                self.killed_by[k.index()].push(i);
            }
        }
    }

    /// Reverts [`ResState::apply`] exactly.
    fn rollback(&mut self, undo: StateUndo) {
        for (i, edit) in undo.journal.into_iter().rev() {
            match edit {
                RowUndo::Full(row) => {
                    self.matcher.set_row(i, row);
                }
                RowUndo::Len(len) => self.matcher.truncate_row(i, len),
            }
        }
        self.matcher.restore_matching(undo.snapshot);
    }
}

/// Incremental re-measurement across the reduce loop's probes.
///
/// Primed against a base [`AllocCtx`]; [`IncrementalEngine::probe`]
/// answers "what would the requirements and critical path be if these
/// sequence edges were added?" without rebuilding anything, and leaves
/// both the context and the engine exactly as it found them. After the
/// loop *adopts* a step the base context changes, so the engine is
/// rebuilt from the adopted context (one scratch pass per adopted
/// round, versus one per probed candidate before).
pub struct IncrementalEngine {
    kill_mode: KillMode,
    paranoid: bool,
    selector: KillSelector,
    states: Vec<ResState>,
}

impl IncrementalEngine {
    /// Primes the engine against `ctx`. `kills` must be the kill map of
    /// `ctx` under `kill_mode` (the driver reuses the one from the last
    /// full measurement).
    pub fn new(
        ctx: &AllocCtx<'_>,
        kills: &KillMap,
        kill_mode: KillMode,
        paranoid: bool,
    ) -> IncrementalEngine {
        let states = ResourceKind::all_for(ctx.machine())
            .into_iter()
            .map(|r| ResState::build(ctx, kills, r))
            .collect();
        IncrementalEngine {
            kill_mode,
            paranoid,
            selector: KillSelector::prime(ctx, kills.clone(), kill_mode),
            states,
        }
    }

    /// Measures `ctx` as if `edges` were added, then reverts everything.
    ///
    /// The result is exactly what the scratch path (`summary_fast` on a
    /// clone with the edges applied, plus its critical path) would
    /// produce; with `paranoid` set that equality is asserted on the
    /// spot.
    ///
    /// # Panics
    ///
    /// Panics if an edge would create a cycle, or (in paranoid mode) if
    /// the incremental and from-scratch measurements disagree.
    pub fn probe(&mut self, ctx: &mut AllocCtx<'_>, edges: &[(NodeId, NodeId)]) -> ProbeResult {
        self.probe_metered(ctx, edges, &Unmetered)
    }

    /// [`IncrementalEngine::probe`] with a cooperative [`WorkMeter`].
    /// When the meter exhausts mid-probe, the re-augmentation may stop
    /// below the maximum matching, so the reported requirements are
    /// *over*-estimates (conservative: never under-books a resource);
    /// the `ParanoidMeasure` equality is only asserted while the meter
    /// is live, since an early-stopped probe legitimately diverges from
    /// scratch.
    pub fn probe_metered(
        &mut self,
        ctx: &mut AllocCtx<'_>,
        edges: &[(NodeId, NodeId)],
        meter: &dyn WorkMeter,
    ) -> ProbeResult {
        let mut txn = CtxTxn::begin(ctx);
        for &(from, to) in edges {
            txn.add_sequence_edge(ctx, from, to);
        }
        // Delta-driven kill selection: `None` means the probed edges
        // cannot have moved any killer, so the base map is reused.
        let probed_kills = self.selector.probe_metered(ctx, txn.deltas(), meter);

        let mut requirements = Vec::with_capacity(self.states.len());
        let mut undos = Vec::with_capacity(self.states.len());
        {
            let base_kills = self.selector.kills();
            let new_kills = probed_kills.as_ref().unwrap_or(base_kills);
            for state in &mut self.states {
                let undo = state.apply(ctx, base_kills, new_kills, txn.deltas(), meter);
                requirements.push(Requirement {
                    resource: state.resource,
                    capacity: state.capacity,
                    required: state.required(),
                });
                undos.push(undo);
            }
        }
        let summary = MeasurementSummary { requirements };
        let critical_path = ctx.critical_path();

        // charge(0) consumes nothing but reports whether the meter is
        // already exhausted.
        if self.paranoid && meter.charge(0) {
            let scratch_kills = select_kills(ctx, self.kill_mode);
            assert_eq!(
                *probed_kills
                    .as_ref()
                    .unwrap_or_else(|| self.selector.kills()),
                scratch_kills,
                "ParanoidMeasure: incremental kill selection disagrees with scratch \
                 after adding {edges:?} (incremental left, scratch right)"
            );
            let scratch = summary_fast(ctx, self.kill_mode);
            assert_eq!(
                summary, scratch,
                "ParanoidMeasure: incremental and from-scratch measurements disagree \
                 after adding {edges:?} (incremental left, scratch right)"
            );
        }

        for (state, undo) in self.states.iter_mut().zip(undos).rev() {
            state.rollback(undo);
        }
        txn.rollback(ctx);
        ProbeResult {
            summary,
            critical_path,
        }
    }

    /// Adopts `edges` into `ctx` *and* into the engine: the same delta
    /// application a probe performs, kept instead of rolled back, so an
    /// adopted spill-free step costs one delta pass rather than a
    /// scratch engine rebuild. The context ends up byte-identical to
    /// applying the edges through [`AllocCtx::add_sequence_edge`]
    /// (implied edges are skipped by the same test), and the engine's
    /// matchers end up row-identical to a fresh build against the new
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if an edge would create a cycle, or (in paranoid mode) if
    /// the committed state disagrees with a from-scratch measurement.
    pub fn commit(&mut self, ctx: &mut AllocCtx<'_>, edges: &[(NodeId, NodeId)]) {
        let mut txn = CtxTxn::begin(ctx);
        for &(from, to) in edges {
            txn.add_sequence_edge(ctx, from, to);
        }
        // Adoption is never budget-stopped: the committed engine state
        // must stay scoring-exact against the new base.
        let probed_kills = self.selector.probe_metered(ctx, txn.deltas(), &Unmetered);
        {
            let base_kills = self.selector.kills();
            let new_kills = probed_kills.as_ref().unwrap_or(base_kills);
            for state in &mut self.states {
                let _ = state.apply(ctx, base_kills, new_kills, txn.deltas(), &Unmetered);
                if probed_kills.is_some() {
                    state.rebase_kills(new_kills);
                }
            }
        }
        self.selector.advance(ctx, probed_kills);
        // Hammock delta: the adopted edges only disturb their upstream /
        // downstream cones, so the base analysis (captured at `begin`,
        // before the insertions invalidated the handle) is patched
        // instead of re-analyzed, and installed in the memo cache so the
        // adopted round's measurement — and every trial clone of this
        // context — hits it without a fresh whole-DAG analysis.
        let base_hammocks = txn.saved_hammocks.clone();
        let inserted: Vec<(NodeId, NodeId)> = txn.journal.iter().map(|(e, _)| *e).collect();
        txn.commit();
        if let (Some(base), false) = (base_hammocks, inserted.is_empty()) {
            let updated = std::sync::Arc::new(
                base.apply_edges(ctx.ddg().dag(), &inserted)
                    .expect("anchored DAG stays single-root/leaf and acyclic under adoption"),
            );
            if self.paranoid {
                let fresh = ursa_graph::hammock::HammockAnalysis::analyze(ctx.ddg().dag())
                    .expect("anchored DAG analyzes");
                assert_eq!(
                    *updated, fresh,
                    "ParanoidMeasure: hammock delta disagrees with a fresh analysis \
                     after adopting {edges:?} (delta left, fresh right)"
                );
            }
            ctx.install_hammocks(updated);
        }
        if self.paranoid {
            assert_eq!(
                *self.selector.kills(),
                select_kills(ctx, self.kill_mode),
                "ParanoidMeasure: committed kill selection disagrees with scratch \
                 after adopting {edges:?} (incremental left, scratch right)"
            );
            let scratch = summary_fast(ctx, self.kill_mode);
            assert_eq!(
                self.base_summary(),
                scratch,
                "ParanoidMeasure: committed engine state disagrees with a from-scratch \
                 measurement after adopting {edges:?} (incremental left, scratch right)"
            );
        }
    }

    /// The kill map of the current base context, as maintained by
    /// adoption commits (equals `select_kills` on the base context).
    pub fn base_kills(&self) -> &KillMap {
        self.selector.kills()
    }

    /// The requirement counts of the base context itself (no edges), as
    /// currently held by the matchers.
    pub fn base_summary(&self) -> MeasurementSummary {
        MeasurementSummary {
            requirements: self
                .states
                .iter()
                .map(|s| Requirement {
                    resource: s.resource,
                    capacity: s.capacity,
                    required: s.required(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::summary_fast;
    use ursa_ir::ddg::DependenceDag;
    use ursa_ir::parser::parse;
    use ursa_machine::Machine;

    const FIG2: &str = "\
        v0 = load a[0]\n\
        v1 = mul v0, 2\n\
        v2 = mul v0, 3\n\
        v3 = add v0, 5\n\
        v4 = add v1, v2\n\
        v5 = mul v1, v2\n\
        v6 = mul v3, 2\n\
        v7 = div v3, 3\n\
        v8 = div v4, v5\n\
        v9 = add v6, v7\n\
        v10 = add v8, v9\n";

    fn ctx_of(src: &str, machine: Machine) -> AllocCtx<'static> {
        let p = parse(src).unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let m: &'static Machine = Box::leak(Box::new(machine));
        AllocCtx::new(ddg, m)
    }

    /// Every independent node pair is a candidate probe edge; each one
    /// must measure exactly like the scratch path and leave the context
    /// untouched.
    #[test]
    fn single_edge_probes_match_scratch_everywhere() {
        for machine in [
            Machine::homogeneous(2, 3),
            Machine::homogeneous(8, 16),
            Machine::classic_vliw(),
        ] {
            let mut ctx = ctx_of(FIG2, machine);
            let kills = select_kills(&ctx, KillMode::MinCover);
            let mut engine = IncrementalEngine::new(&ctx, &kills, KillMode::MinCover, true);
            let base_fp = ctx.ddg().dag().fingerprint();
            let base_summary = summary_fast(&ctx, KillMode::MinCover);
            let nodes: Vec<NodeId> = ctx.ddg().dag().nodes().collect();
            for &a in &nodes {
                for &b in &nodes {
                    if a == b || !ctx.reach().independent(a, b) {
                        continue;
                    }
                    // probe() runs its own ParanoidMeasure cross-check.
                    let _ = engine.probe(&mut ctx, &[(a, b)]);
                    assert_eq!(ctx.ddg().dag().fingerprint(), base_fp, "rollback exact");
                }
            }
            assert_eq!(summary_fast(&ctx, KillMode::MinCover), base_summary);
            assert_eq!(engine.base_summary(), base_summary);
        }
    }

    #[test]
    fn multi_edge_probe_and_repeat_probes_are_exact() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(2, 3));
        let kills = select_kills(&ctx, KillMode::MinCover);
        let mut engine = IncrementalEngine::new(&ctx, &kills, KillMode::MinCover, true);
        // Find three pairwise-addable edges between independent nodes.
        let nodes: Vec<NodeId> = ctx.ddg().dag().nodes().collect();
        let mut edges = Vec::new();
        'outer: for &a in &nodes {
            for &b in &nodes {
                if ctx.reach().independent(a, b) && !edges.contains(&(a, b)) {
                    edges.push((a, b));
                    if edges.len() == 3 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(edges.len(), 3);
        // Repeat probes (revert-after-revert) with the same and
        // different batches; paranoid mode checks each against scratch.
        let first = engine.probe(&mut ctx, &edges);
        let again = engine.probe(&mut ctx, &edges);
        assert_eq!(first.summary, again.summary);
        assert_eq!(first.critical_path, again.critical_path);
        let _ = engine.probe(&mut ctx, &edges[..1]);
        let third = engine.probe(&mut ctx, &edges);
        assert_eq!(first.summary, third.summary);
    }

    #[test]
    fn txn_rollback_restores_levels_and_reach() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(4, 8));
        let cp = ctx.critical_path();
        let fp = ctx.ddg().dag().fingerprint();
        let nodes: Vec<NodeId> = ctx.ddg().dag().nodes().collect();
        let (a, b) = nodes
            .iter()
            .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| ctx.reach().independent(a, b))
            .expect("fig2 has independent pairs");
        let mut txn = CtxTxn::begin(&ctx);
        assert!(txn.add_sequence_edge(&mut ctx, a, b));
        assert!(ctx.reach().reaches(a, b));
        assert!(ctx.critical_path() >= cp);
        txn.rollback(&mut ctx);
        assert!(!ctx.reach().reaches(a, b));
        assert_eq!(ctx.critical_path(), cp);
        assert_eq!(ctx.ddg().dag().fingerprint(), fp);
    }

    #[test]
    fn implied_edges_probe_as_noops() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(2, 3));
        let kills = select_kills(&ctx, KillMode::MinCover);
        let mut engine = IncrementalEngine::new(&ctx, &kills, KillMode::MinCover, true);
        let base = summary_fast(&ctx, KillMode::MinCover);
        // v0 -> v1 is a data edge; probing it must change nothing.
        let a = ctx.ddg().dag().node(2);
        let b = ctx.ddg().dag().node(3);
        assert!(ctx.reach().reaches(a, b));
        let probe = engine.probe(&mut ctx, &[(a, b)]);
        assert_eq!(probe.summary, base);
    }
}
