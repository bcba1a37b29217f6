//! The allocation context: a dependence DAG plus the derived analyses
//! URSA's measurement and transformations consult.

use crate::resource::ResourceKind;
use std::sync::{Arc, OnceLock};
use ursa_graph::dag::NodeId;
use ursa_graph::hammock::{HammockAnalysis, HammockCache};
use ursa_graph::order::Levels;
use ursa_graph::reach::{ReachDelta, Reachability};
use ursa_ir::ddg::{DependenceDag, NodeKind, SpillPair};
use ursa_machine::{Machine, OpKind};

/// A dependence DAG bundled with its reachability closure, hammock
/// structure and longest-path levels, kept consistent across
/// transformations.
///
/// Reachability is maintained in place: sequence-edge insertion adds
/// the edge to the closure, and spill insertion grows the closure by
/// the store and reload nodes and adds their edges (the rewired
/// value → use edges stay implied through value → store → load → use,
/// so nothing is ever removed). Levels and hammock structure are only
/// invalidated by a mutation and recomputed when next read.
///
/// Hammock analyses are memoized in a [`HammockCache`] keyed by the
/// DAG's structural fingerprint. The cache is *shared across clones* of
/// the context (the reduce loop clones the context for every tentative
/// transformation), so a trial whose edit leaves the graph structure
/// unchanged — or whose edit is reverted — reuses the base analysis
/// instead of redoing the O(N²·pairs) hammock scan.
#[derive(Clone)]
pub struct AllocCtx<'m> {
    machine: &'m Machine,
    ddg: DependenceDag,
    reach: Reachability,
    levels: OnceLock<Levels>,
    hammocks: Option<Arc<HammockAnalysis>>,
    hammock_cache: HammockCache,
}

impl<'m> AllocCtx<'m> {
    /// Wraps a freshly built DAG.
    ///
    /// # Panics
    ///
    /// Panics if the DAG is cyclic (dependence DAGs never are).
    pub fn new(ddg: DependenceDag, machine: &'m Machine) -> Self {
        let reach = Reachability::of(ddg.dag());
        AllocCtx {
            machine,
            ddg,
            reach,
            levels: OnceLock::new(),
            hammocks: None,
            hammock_cache: HammockCache::new(),
        }
    }

    fn compute_levels(ddg: &DependenceDag, machine: &Machine) -> Levels {
        let weights: Vec<u64> = ddg
            .dag()
            .nodes()
            .map(|n| Self::latency_static(ddg, machine, n))
            .collect();
        Levels::weighted(ddg.dag(), &weights)
    }

    fn latency_static(ddg: &DependenceDag, machine: &Machine, n: NodeId) -> u64 {
        match ddg.kind(n) {
            NodeKind::Op { instr, .. } => machine.instr_latency(instr),
            NodeKind::Branch { .. } => machine.latency_of(OpKind::Branch),
            NodeKind::Entry | NodeKind::Exit | NodeKind::LiveIn { .. } => 0,
        }
    }

    /// The target machine.
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// The dependence DAG.
    pub fn ddg(&self) -> &DependenceDag {
        &self.ddg
    }

    /// Consumes the context, returning the (transformed) DAG.
    pub fn into_ddg(self) -> DependenceDag {
        self.ddg
    }

    /// The materialized reachability relation.
    pub fn reach(&self) -> &Reachability {
        &self.reach
    }

    /// Longest-path levels under the machine's latencies (recomputed
    /// here if a mutation invalidated them).
    pub fn levels(&self) -> &Levels {
        self.levels
            .get_or_init(|| Self::compute_levels(&self.ddg, self.machine))
    }

    /// Levels recomputed from scratch, bypassing the maintained value.
    /// A differential oracle for [`AllocCtx::levels`].
    pub fn scratch_levels(&self) -> Levels {
        Self::compute_levels(&self.ddg, self.machine)
    }

    /// The hammock structure (served from the shared fingerprint-keyed
    /// cache; recomputed only for structures never seen before).
    pub fn hammocks(&mut self) -> &HammockAnalysis {
        if self.hammocks.is_none() {
            self.hammocks = Some(
                self.hammock_cache
                    .analyze(self.ddg.dag())
                    .expect("dependence DAGs have a single root and leaf"),
            );
        }
        self.hammocks.as_deref().expect("just computed")
    }

    /// The hammock structure if it is currently materialized (use
    /// [`AllocCtx::hammocks`] to force computation).
    pub fn hammocks_ref(&self) -> Option<&HammockAnalysis> {
        self.hammocks.as_deref()
    }

    /// The current hammock handle without forcing computation (the
    /// transaction layer snapshots this so rollback can restore the
    /// analysis without re-running it).
    pub(crate) fn hammocks_handle(&self) -> Option<Arc<HammockAnalysis>> {
        self.hammocks.clone()
    }

    /// Restores a previously captured hammock handle (rollback path).
    pub(crate) fn set_hammocks(&mut self, h: Option<Arc<HammockAnalysis>>) {
        self.hammocks = h;
    }

    /// Installs an analysis derived elsewhere (the incremental engine's
    /// delta application) as the current handle *and* memoizes it under
    /// the DAG's present fingerprint, so both this context and every
    /// clone sharing the cache hit it instead of re-analyzing.
    pub(crate) fn install_hammocks(&mut self, h: Arc<HammockAnalysis>) {
        self.hammock_cache
            .insert(self.ddg.dag().fingerprint(), Arc::clone(&h));
        self.hammocks = Some(h);
    }

    /// The levels if they are currently materialized (the transaction
    /// layer snapshots them so rollback does not recompute them).
    pub(crate) fn levels_handle(&self) -> Option<Levels> {
        self.levels.get().cloned()
    }

    /// Installs previously captured levels (rollback path); `None`
    /// leaves them to be recomputed on the next read.
    pub(crate) fn set_levels(&mut self, levels: Option<Levels>) {
        self.levels = levels.map_or_else(OnceLock::new, OnceLock::from);
    }

    /// Latency of node `n` on this machine (0 for pseudo nodes).
    pub fn latency(&self, n: NodeId) -> u64 {
        Self::latency_static(&self.ddg, self.machine, n)
    }

    /// Critical-path length of the current DAG in cycles.
    pub fn critical_path(&self) -> u64 {
        self.levels().critical_path()
    }

    /// The nodes competing for `resource`: instructions routed to that
    /// functional-unit class, or every value-producing node for
    /// registers.
    pub fn resource_nodes(&self, resource: ResourceKind) -> Vec<NodeId> {
        match resource {
            ResourceKind::Fu(class) => self
                .ddg
                .fu_nodes()
                .filter(|&n| self.fu_class_of(n) == Some(class))
                .collect(),
            ResourceKind::Registers => self.ddg.value_nodes().collect(),
        }
    }

    /// The functional-unit class of node `n`, if it occupies one.
    pub fn fu_class_of(&self, n: NodeId) -> Option<ursa_machine::FuClass> {
        match self.ddg.kind(n) {
            NodeKind::Op { instr, .. } => Some(self.machine.instr_class(instr)),
            NodeKind::Branch { .. } => Some(self.machine.class_of(OpKind::Branch)),
            _ => None,
        }
    }

    /// `true` if adding `from → to` would create a cycle.
    pub fn would_cycle(&self, from: NodeId, to: NodeId) -> bool {
        self.reach.would_cycle(from, to)
    }

    /// Adds a URSA sequence edge, updating the analyses. Returns `false`
    /// (and changes nothing) if the edge is already implied by the
    /// current partial order.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle; check
    /// [`AllocCtx::would_cycle`] first.
    pub fn add_sequence_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.insert_sequence_edge(from, to, false).is_some()
    }

    /// The one sequence-edge insertion path. Returns `None` (and changes
    /// nothing) if the edge is already implied. Otherwise the edge joins
    /// the DAG and the closure, levels and the hammock handle are
    /// invalidated, and the result holds the exact set of newly
    /// established reachability pairs when `log` is set (empty
    /// otherwise: the unlogged closure update is word-parallel). FU
    /// sequentialization feeds the log to its comparability matcher;
    /// [`crate::CtxTxn`] keeps it for undo.
    ///
    /// # Panics
    ///
    /// Panics if the edge would create a cycle.
    pub(crate) fn insert_sequence_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        log: bool,
    ) -> Option<ReachDelta> {
        assert!(
            !self.would_cycle(from, to),
            "sequence edge {from} -> {to} would create a cycle"
        );
        if self.reach.reaches(from, to) {
            // Already ordered; adding the edge would not remove any
            // schedule from consideration.
            return None;
        }
        self.ddg.add_sequence_edge(from, to);
        let delta = if log {
            self.reach.add_edge_logged(from, to)
        } else {
            self.reach.add_edge(from, to);
            ReachDelta::default()
        };
        self.invalidate();
        Some(delta)
    }

    /// Reverts an [`AllocCtx::insert_sequence_edge`] given its logged
    /// delta (LIFO order only, like [`Reachability::undo`]). Levels and
    /// the hammock handle are invalidated; the transaction layer then
    /// reinstalls its snapshots.
    pub(crate) fn remove_sequence_edge(&mut self, from: NodeId, to: NodeId, delta: &ReachDelta) {
        let removed = self.ddg.remove_sequence_edge(from, to);
        debug_assert!(removed, "sequence edge {from} -> {to} must exist");
        self.reach.undo(delta);
        self.invalidate();
    }

    /// Inserts spill code (see [`DependenceDag::insert_spill`]). The
    /// closure grows by the store and reload nodes and gains their
    /// edges; the value → use edges the DAG drops stay implied through
    /// value → store → load → use, so the in-place update is exact.
    pub fn insert_spill(&mut self, value_node: NodeId, reload_uses: &[NodeId]) -> SpillPair {
        let pair = self.ddg.insert_spill(value_node, reload_uses);
        let dag = self.ddg.dag();
        self.reach.grow(dag.node_count());
        for n in [pair.store, pair.load] {
            for p in dag.preds(n) {
                self.reach.add_edge(p, n);
            }
            for s in dag.succs(n) {
                self.reach.add_edge(n, s);
            }
        }
        self.invalidate();
        pair
    }

    /// Recomputes every analysis from the DAG, from scratch.
    pub fn refresh(&mut self) {
        self.reach = Reachability::of(self.ddg.dag());
        self.levels = OnceLock::from(Self::compute_levels(&self.ddg, self.machine));
        self.hammocks = None;
    }

    /// Drops the analyses a mutation made stale; they are recomputed
    /// when next read.
    fn invalidate(&mut self) {
        self.levels = OnceLock::new();
        self.hammocks = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_ir::parser::parse;

    fn ctx_of(src: &str, machine: &Machine) -> AllocCtx<'static> {
        // Leak the machine for test convenience.
        let p = parse(src).unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let m: &'static Machine = Box::leak(Box::new(machine.clone()));
        AllocCtx::new(ddg, m)
    }

    #[test]
    fn latencies_respect_machine() {
        let m = Machine::classic_vliw();
        let ctx = ctx_of("v0 = load a[0]\nv1 = mul v0, 2\nstore a[0], v1\n", &m);
        let load = ctx.ddg().dag().node(2);
        let mul = ctx.ddg().dag().node(3);
        assert_eq!(ctx.latency(load), 2);
        assert_eq!(ctx.latency(mul), 3);
        assert_eq!(ctx.latency(ctx.ddg().entry()), 0);
        // load(2) + mul(3) + store(1) on a chain.
        assert_eq!(ctx.critical_path(), 6);
    }

    #[test]
    fn resource_nodes_split_by_class() {
        let m = Machine::classic_vliw();
        let ctx = ctx_of(
            "v0 = load a[0]\nv1 = mul v0, 2\nv2 = add v1, 1\nstore a[0], v2\n",
            &m,
        );
        use ursa_machine::FuClass;
        assert_eq!(ctx.resource_nodes(ResourceKind::Fu(FuClass::Mem)).len(), 2);
        assert_eq!(ctx.resource_nodes(ResourceKind::Fu(FuClass::Mul)).len(), 1);
        assert_eq!(ctx.resource_nodes(ResourceKind::Fu(FuClass::Alu)).len(), 1);
        // Producers: load, mul, add (store produces nothing).
        assert_eq!(ctx.resource_nodes(ResourceKind::Registers).len(), 3);
    }

    #[test]
    fn homogeneous_machine_lumps_all_fus() {
        let m = Machine::homogeneous(4, 8);
        let ctx = ctx_of("v0 = load a[0]\nv1 = mul v0, 2\nstore a[0], v1\n", &m);
        use ursa_machine::FuClass;
        assert_eq!(
            ctx.resource_nodes(ResourceKind::Fu(FuClass::Universal))
                .len(),
            3
        );
    }

    #[test]
    fn sequence_edge_updates_analyses() {
        let m = Machine::homogeneous(4, 8);
        let mut ctx = ctx_of(
            "v0 = const 1\nv1 = const 2\nstore a[0], v0\nstore a[1], v1\n",
            &m,
        );
        let c1 = ctx.ddg().dag().node(2);
        let c2 = ctx.ddg().dag().node(3);
        assert!(ctx.reach().independent(c1, c2));
        let cp_before = ctx.critical_path();
        assert!(ctx.add_sequence_edge(c1, c2));
        assert!(ctx.reach().reaches(c1, c2));
        assert!(ctx.critical_path() >= cp_before);
        // Implied edges are rejected as no-ops.
        assert!(!ctx.add_sequence_edge(c1, c2));
    }

    #[test]
    #[should_panic(expected = "would create a cycle")]
    fn cyclic_sequence_edge_panics() {
        let m = Machine::homogeneous(4, 8);
        let mut ctx = ctx_of("v0 = const 1\nv1 = add v0, 1\nstore a[0], v1\n", &m);
        let c = ctx.ddg().dag().node(2);
        let a = ctx.ddg().dag().node(3);
        ctx.add_sequence_edge(a, c);
    }

    #[test]
    fn spill_extends_analyses_in_place() {
        let m = Machine::homogeneous(4, 8);
        let mut ctx = ctx_of(
            "v0 = const 1\nv1 = add v0, 2\nv2 = mul v0, 3\nstore a[0], v1\nstore a[1], v2\n",
            &m,
        );
        let def = ctx.ddg().dag().node(2);
        let mul = ctx.ddg().dag().node(4);
        let n_before = ctx.ddg().dag().node_count();
        let pair = ctx.insert_spill(def, &[mul]);
        assert_eq!(ctx.ddg().dag().node_count(), n_before + 2);
        assert!(ctx.reach().reaches(def, pair.store));
        assert!(ctx.reach().reaches(pair.store, mul));
    }

    #[test]
    fn lazy_levels_keep_the_context_shareable() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<AllocCtx<'static>>();
    }

    #[test]
    fn hammocks_available_and_lazy() {
        let m = Machine::homogeneous(4, 8);
        let mut ctx = ctx_of("v0 = const 1\nv1 = add v0, 1\nstore a[0], v1\n", &m);
        let entry = ctx.ddg().entry();
        let exit = ctx.ddg().exit();
        let h = ctx.hammocks();
        assert_eq!(h.root(), entry);
        assert_eq!(h.leaf(), exit);
    }
}
