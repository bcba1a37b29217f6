//! Dependence DAG construction for traces (paper §2).
//!
//! The DAG has a synthetic single root (`Entry`) and single leaf
//! (`Exit`), making the whole graph a hammock. Edges record their
//! provenance:
//!
//! * `Data` — def → use of a value (after renaming, every value has a
//!   unique defining node, so anti/output register dependences vanish:
//!   URSA allocates *values*, not reused register names).
//! * `Memory` — ordering between possibly-aliasing memory operations.
//! * `Control` — sequencing that precludes illegal code motion across
//!   branches, and the Entry/Exit anchoring edges.
//! * `Sequence` — edges URSA's transformations add later.
//!
//! Values that are live on an off-trace edge of a branch gain a
//! `Control` edge to that branch (the value must exist if the branch
//! leaves the trace), and values live out of the trace are marked so the
//! exit node kills them (paper §3.2's "killed by the last use").

use crate::instr::{Instr, Terminator};
use crate::program::Program;
use crate::trace::{liveness, Trace};
use crate::value::{MemRef, Operand, SymbolId, VirtualReg};
use std::collections::HashMap;
use ursa_graph::dag::{Dag, EdgeKind, NodeId};

/// What a DAG node represents.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// The synthetic single root.
    Entry,
    /// The synthetic single leaf.
    Exit,
    /// A value that is live into the trace; occupies a register but no
    /// functional unit.
    LiveIn {
        /// The (original) register carrying the value.
        reg: VirtualReg,
    },
    /// A real instruction (possibly rewritten by renaming or spilling).
    Op {
        /// The instruction, with renamed registers.
        instr: Instr,
        /// Index of the source block within the program, or `usize::MAX`
        /// for instructions synthesized by transformations (spill code).
        block: usize,
    },
    /// An on-trace conditional branch.
    Branch {
        /// Condition operand (renamed).
        cond: Operand,
        /// Index of the source block within the program.
        block: usize,
        /// Polarity of the trace exit: execution leaves the trace when
        /// `(cond != 0) == exit_on_true`. A branch whose on-trace
        /// successor is the `else` target exits on a *true* condition;
        /// one whose on-trace successor is the `then` target exits on
        /// *false*.
        exit_on_true: bool,
    },
}

impl NodeKind {
    /// `true` for nodes that occupy a functional unit when executed.
    pub fn needs_fu(&self) -> bool {
        matches!(self, NodeKind::Op { .. } | NodeKind::Branch { .. })
    }

    /// `true` for the synthetic entry/exit anchors.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, NodeKind::Entry | NodeKind::Exit)
    }
}

/// Options controlling dependence construction.
#[derive(Clone, Copy, Debug)]
pub struct DdgOptions {
    /// Allow loads to move above branches (speculative execution).
    /// When `false`, loads are pinned to branches like stores.
    pub speculative_loads: bool,
    /// Rename register redefinitions so every value has a unique
    /// producer (URSA's model; the default). When `false`, redefining a
    /// register adds [`ursa_graph::dag::EdgeKind::Anti`] anti/output
    /// edges instead — modeling code that a prepass register allocator
    /// has already committed to a finite register file.
    pub rename: bool,
    /// Materialize the trace-final conditional branch as a DAG node
    /// instead of subsuming it under `Exit`. The whole-program driver
    /// needs the final branch executed so the runtime can pick the
    /// successor unit; single-trace callers keep the default (`false`),
    /// where falling off the end of the trace is the only exit.
    pub materialize_final_branch: bool,
}

impl Default for DdgOptions {
    fn default() -> Self {
        DdgOptions {
            speculative_loads: true,
            rename: true,
            materialize_final_branch: false,
        }
    }
}

/// The store/load pair created by [`DependenceDag::insert_spill`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpillPair {
    /// The inserted store ("spill") node.
    pub store: NodeId,
    /// The inserted load ("reload") node.
    pub load: NodeId,
}

/// A dependence DAG of one trace, with value and liveness bookkeeping.
///
/// # Examples
///
/// ```
/// use ursa_ir::ddg::DependenceDag;
/// use ursa_ir::parser::parse;
///
/// let p = parse("v0 = load a[0]\nv1 = mul v0, 2\nstore a[0], v1\n").unwrap();
/// let ddg = DependenceDag::from_entry_block(&p);
/// // 3 instructions + entry + exit.
/// assert_eq!(ddg.dag().node_count(), 5);
/// assert_eq!(ddg.fu_nodes().count(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct DependenceDag {
    dag: Dag,
    kinds: Vec<NodeKind>,
    entry: NodeId,
    exit: NodeId,
    /// Register defined by each node (LiveIn nodes "define" their value).
    defs: Vec<Option<VirtualReg>>,
    /// Nodes that read each node's value (kept in sync by spilling).
    use_sites: Vec<Vec<NodeId>>,
    /// Whether each node's value survives the trace.
    live_out: Vec<bool>,
    symbols: Vec<String>,
    next_vreg: u32,
    spill_sym: Option<SymbolId>,
    next_spill_slot: i64,
}

impl DependenceDag {
    /// Builds the DAG of `trace` within `program` with default options.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or references out-of-range blocks.
    pub fn build(program: &Program, trace: &Trace) -> Self {
        Self::build_with(program, trace, DdgOptions::default())
    }

    /// Builds the DAG of the entry block alone — the common case for
    /// straight-line kernels.
    pub fn from_entry_block(program: &Program) -> Self {
        Self::build(program, &Trace::entry())
    }

    /// Builds the DAG of `trace` with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or references out-of-range blocks.
    pub fn build_with(program: &Program, trace: &Trace, options: DdgOptions) -> Self {
        assert!(!trace.is_empty(), "cannot build a DAG of an empty trace");
        for &b in &trace.blocks {
            assert!(b < program.blocks.len(), "trace block {b} out of range");
        }
        Builder::new(program, trace, options).run()
    }

    /// The underlying graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The synthetic entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The synthetic exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// What node `n` represents.
    pub fn kind(&self, n: NodeId) -> &NodeKind {
        &self.kinds[n.index()]
    }

    /// The instruction carried by node `n`, if it is an [`NodeKind::Op`].
    pub fn instr(&self, n: NodeId) -> Option<&Instr> {
        match &self.kinds[n.index()] {
            NodeKind::Op { instr, .. } => Some(instr),
            _ => None,
        }
    }

    /// The register whose value node `n` produces, if any.
    pub fn value_def(&self, n: NodeId) -> Option<VirtualReg> {
        self.defs[n.index()]
    }

    /// The nodes that read the value produced by `n` (real uses plus the
    /// branches that need the value live for an off-trace exit).
    pub fn uses_of(&self, n: NodeId) -> &[NodeId] {
        &self.use_sites[n.index()]
    }

    /// `true` if `n`'s value is needed after the trace, so the exit node
    /// acts as its final kill.
    pub fn is_live_out(&self, n: NodeId) -> bool {
        self.live_out[n.index()]
    }

    /// The nodes among which the kill of `n`'s value must be chosen
    /// (paper §3.2): its uses, plus the exit node when the value is
    /// live-out or entirely unused.
    pub fn kill_candidates(&self, n: NodeId) -> Vec<NodeId> {
        let mut c = self.use_sites[n.index()].clone();
        if self.live_out[n.index()] || c.is_empty() {
            c.push(self.exit);
        }
        c
    }

    /// Iterates over nodes that occupy a functional unit.
    pub fn fu_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dag
            .nodes()
            .filter(move |&n| self.kinds[n.index()].needs_fu())
    }

    /// Iterates over nodes that produce a register value (including
    /// live-in pseudo-nodes).
    pub fn value_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dag
            .nodes()
            .filter(move |&n| self.defs[n.index()].is_some())
    }

    /// Symbol names referenced by this DAG (a copy of the program's
    /// table, possibly extended with the spill area).
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    /// Name of a symbol.
    pub fn symbol_name(&self, sym: SymbolId) -> &str {
        &self.symbols[sym.index()]
    }

    /// One past the largest virtual register index in use.
    pub fn num_vregs(&self) -> u32 {
        self.next_vreg
    }

    /// Adds a URSA sequence edge. Returns `false` if the edge (of this
    /// kind) already existed. The caller is responsible for checking
    /// acyclicity first (see [`ursa_graph::reach::Reachability`]).
    pub fn add_sequence_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.dag.add_edge(from, to, EdgeKind::Sequence)
    }

    /// Removes a URSA sequence edge, if present. Only [`EdgeKind::Sequence`]
    /// edges may be removed — they carry no program semantics, so deleting
    /// one merely re-admits schedules. Returns whether the edge existed.
    pub fn remove_sequence_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.dag.remove_edge(from, to, EdgeKind::Sequence)
    }

    /// Inserts spill code for the value of `value_node` (paper §4.3):
    /// a store of the value right after its definition and a reload that
    /// the listed `reload_uses` are rewired to read.
    ///
    /// The caller adds the sequence edges that place the store before
    /// SD1's roots and the reload after SD1's leaves; this method only
    /// maintains data/memory correctness (def → store → load → uses).
    ///
    /// # Panics
    ///
    /// Panics if `value_node` defines no value, if any of `reload_uses`
    /// is not currently a use of it, or if `reload_uses` is empty.
    pub fn insert_spill(&mut self, value_node: NodeId, reload_uses: &[NodeId]) -> SpillPair {
        let reg = self.defs[value_node.index()]
            .unwrap_or_else(|| panic!("{value_node} defines no value to spill"));
        assert!(!reload_uses.is_empty(), "spill with no reloaded uses");
        for u in reload_uses {
            assert!(
                self.use_sites[value_node.index()].contains(u),
                "{u} is not a use of {value_node}"
            );
        }
        let slot = self.fresh_spill_slot();
        let spill_sym = self
            .spill_sym
            .expect("fresh_spill_slot interned the symbol");
        let mem = MemRef::new(spill_sym, slot);

        // Store node: reads the value.
        let store = self.push_node(
            NodeKind::Op {
                instr: Instr::Store {
                    mem,
                    src: Operand::Reg(reg),
                },
                block: usize::MAX,
            },
            None,
        );
        self.dag.add_edge(value_node, store, EdgeKind::Data);
        self.use_sites[value_node.index()].push(store);

        // Reload node: defines a fresh register.
        let reload_reg = self.fresh_reg();
        let load = self.push_node(
            NodeKind::Op {
                instr: Instr::Load {
                    dst: reload_reg,
                    mem,
                },
                block: usize::MAX,
            },
            Some(reload_reg),
        );
        // The reload truly depends on the store through memory.
        self.dag.add_edge(store, load, EdgeKind::Memory);

        // Rewire the chosen uses.
        for &u in reload_uses {
            let removed = self.dag.remove_edge(value_node, u, EdgeKind::Data)
                | self.dag.remove_edge(value_node, u, EdgeKind::Control);
            debug_assert!(removed, "use {u} had an edge from {value_node}");
            self.dag.add_edge(load, u, EdgeKind::Data);
            let sites = &mut self.use_sites[value_node.index()];
            sites.retain(|&s| s != u);
            self.use_sites[load.index()].push(u);
            match &mut self.kinds[u.index()] {
                NodeKind::Op { instr, .. } => instr.replace_uses(reg, reload_reg),
                NodeKind::Branch { cond, .. } => {
                    if *cond == Operand::Reg(reg) {
                        *cond = Operand::Reg(reload_reg);
                    }
                }
                other => panic!("cannot rewire use in {other:?}"),
            }
        }
        // A live-out value is now delivered by the reload instead.
        if self.live_out[value_node.index()] {
            self.live_out[value_node.index()] = false;
            self.live_out[load.index()] = true;
        }
        // Keep Entry/Exit anchoring intact for the new nodes.
        self.reanchor(store);
        self.reanchor(load);
        SpillPair { store, load }
    }

    fn reanchor(&mut self, n: NodeId) {
        if self.dag.preds(n).next().is_none() {
            self.dag.add_edge(self.entry, n, EdgeKind::Control);
        }
        if self.dag.succs(n).next().is_none() {
            self.dag.add_edge(n, self.exit, EdgeKind::Control);
        }
        // Exit must stay the single leaf.
        if n != self.exit && self.dag.succs(n).next().is_none() {
            self.dag.add_edge(n, self.exit, EdgeKind::Control);
        }
    }

    fn push_node(&mut self, kind: NodeKind, def: Option<VirtualReg>) -> NodeId {
        let n = self.dag.add_node();
        self.kinds.push(kind);
        self.defs.push(def);
        self.use_sites.push(Vec::new());
        self.live_out.push(false);
        n
    }

    fn fresh_reg(&mut self) -> VirtualReg {
        let r = VirtualReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    fn fresh_spill_slot(&mut self) -> i64 {
        if self.spill_sym.is_none() {
            let id = SymbolId(self.symbols.len() as u32);
            self.symbols.push("__spill".to_string());
            self.spill_sym = Some(id);
        }
        let slot = self.next_spill_slot;
        self.next_spill_slot += 1;
        slot
    }

    /// A short human-readable description of node `n` for diagnostics.
    pub fn describe(&self, n: NodeId) -> String {
        match &self.kinds[n.index()] {
            NodeKind::Entry => "entry".to_string(),
            NodeKind::Exit => "exit".to_string(),
            NodeKind::LiveIn { reg } => format!("livein {reg}"),
            NodeKind::Op { instr, .. } => instr.to_string(),
            NodeKind::Branch { cond, .. } => format!("br {cond}"),
        }
    }
}

struct Builder<'a> {
    program: &'a Program,
    trace: &'a Trace,
    options: DdgOptions,
    ddg: DependenceDag,
    /// Original register → (defining node, renamed register).
    current: HashMap<VirtualReg, (NodeId, VirtualReg)>,
    /// Readers of the current value of each original register (tracked
    /// only in non-renaming mode, for anti dependences).
    readers: HashMap<VirtualReg, Vec<NodeId>>,
    /// Loads/stores seen so far, with their refs (for memory edges).
    mem_reads: Vec<(NodeId, MemRef)>,
    mem_writes: Vec<(NodeId, MemRef)>,
    /// Most recent branch node, and pinned ops since it.
    last_branch: Option<NodeId>,
    pinned_since_branch: Vec<NodeId>,
}

impl<'a> Builder<'a> {
    fn new(program: &'a Program, trace: &'a Trace, options: DdgOptions) -> Self {
        let dag = Dag::new(2);
        let entry = dag.node(0);
        let exit = dag.node(1);
        let ddg = DependenceDag {
            dag,
            kinds: vec![NodeKind::Entry, NodeKind::Exit],
            entry,
            exit,
            defs: vec![None, None],
            use_sites: vec![Vec::new(), Vec::new()],
            live_out: vec![false, false],
            symbols: program.symbols.clone(),
            next_vreg: program.num_vregs,
            spill_sym: None,
            next_spill_slot: 0,
        };
        Builder {
            program,
            trace,
            options,
            ddg,
            current: HashMap::new(),
            readers: HashMap::new(),
            mem_reads: Vec::new(),
            mem_writes: Vec::new(),
            last_branch: None,
            pinned_since_branch: Vec::new(),
        }
    }

    fn run(mut self) -> DependenceDag {
        let lv = liveness(self.program);
        for (ti, &b) in self.trace.blocks.iter().enumerate() {
            let block = &self.program.blocks[b];
            for instr in &block.instrs {
                self.add_instr(instr.clone(), b);
            }
            // On-trace conditional branches become nodes; the final
            // block's control transfer is subsumed by Exit unless the
            // caller asked for it (whole-program compilation). A branch
            // with identical targets is really a jump and needs no node.
            let on_trace_next = self.trace.blocks.get(ti + 1).copied();
            if let Terminator::Branch {
                cond,
                then_block,
                else_block,
            } = block.term
            {
                if then_block != else_block
                    && (on_trace_next.is_some() || self.options.materialize_final_branch)
                {
                    self.add_branch(cond, b, then_block, else_block, on_trace_next, &lv);
                }
            }
        }
        self.mark_trace_live_out(&lv);
        self.anchor();
        self.ddg
    }

    fn add_instr(&mut self, mut instr: Instr, block: usize) {
        // Rewrite uses to renamed registers, creating live-in nodes for
        // values defined before the trace.
        for orig in instr.uses() {
            // The def node's edge is added below, after this node exists.
            let (_, renamed) = self.mapping_for(orig);
            if renamed != orig {
                instr.replace_uses(orig, renamed);
            }
        }
        // Rename the definition if the original register was already
        // defined on the trace (unless anti-dependence mode is on).
        let orig_def = instr.def();
        let renamed_def = orig_def.map(|r| {
            if self.options.rename && self.current.contains_key(&r) {
                let fresh = self.ddg.fresh_reg();
                instr.replace_def(fresh);
                fresh
            } else {
                r
            }
        });

        let reads: Vec<VirtualReg> = instr.uses();
        let mem_read = instr.mem_read();
        let mem_write = instr.mem_write();
        let is_store = instr.has_side_effect();
        let n = self
            .ddg
            .push_node(NodeKind::Op { instr, block }, renamed_def);

        // Data edges from each read value's definition.
        for r in &reads {
            let def_node = self.def_node_of(*r);
            self.ddg.dag.add_edge(def_node, n, EdgeKind::Data);
            if !self.ddg.use_sites[def_node.index()].contains(&n) {
                self.ddg.use_sites[def_node.index()].push(n);
            }
        }
        if !self.options.rename {
            for r in &reads {
                self.readers.entry(*r).or_default().push(n);
            }
            // Anti/output dependences: the previous value of this
            // register must be fully consumed before the redefinition.
            if let Some(d) = orig_def {
                if let Some(&(prev_def, _)) = self.current.get(&d) {
                    self.ddg.dag.add_edge(prev_def, n, EdgeKind::Anti);
                    for reader in self.readers.remove(&d).unwrap_or_default() {
                        if reader != n {
                            self.ddg.dag.add_edge(reader, n, EdgeKind::Anti);
                        }
                    }
                }
            }
        }
        // Memory edges.
        if let Some(w) = mem_write {
            for &(m, ref r) in &self.mem_reads {
                if r.may_alias(&w) {
                    self.ddg.dag.add_edge(m, n, EdgeKind::Memory);
                }
            }
            for &(m, ref r) in &self.mem_writes {
                if r.may_alias(&w) {
                    self.ddg.dag.add_edge(m, n, EdgeKind::Memory);
                }
            }
            self.mem_writes.push((n, w));
        }
        if let Some(r) = mem_read {
            for &(m, ref w) in &self.mem_writes {
                if w.may_alias(&r) {
                    self.ddg.dag.add_edge(m, n, EdgeKind::Memory);
                }
            }
            self.mem_reads.push((n, r));
        }
        // Branch pinning.
        let pinned = is_store || (mem_read.is_some() && !self.options.speculative_loads);
        if pinned {
            if let Some(b) = self.last_branch {
                self.ddg.dag.add_edge(b, n, EdgeKind::Control);
            }
            self.pinned_since_branch.push(n);
        }
        // Record the new definition.
        if let (Some(orig), Some(renamed)) = (orig_def, renamed_def) {
            self.current.insert(orig, (n, renamed));
        }
    }

    fn add_branch(
        &mut self,
        cond: Operand,
        block: usize,
        then_block: usize,
        else_block: usize,
        on_trace_next: Option<usize>,
        lv: &crate::trace::Liveness,
    ) {
        let mut cond = cond;
        if let Operand::Reg(orig) = cond {
            let (_, renamed) = self.mapping_for(orig);
            cond = Operand::Reg(renamed);
        }
        // Staying on trace through the `else` target means a true
        // condition leaves the trace; a materialized final branch
        // (no on-trace successor) falls through to `then_block` and
        // exits to `else_block`, matching sequential semantics.
        let exit_on_true = on_trace_next == Some(else_block);
        let n = self.ddg.push_node(
            NodeKind::Branch {
                cond,
                block,
                exit_on_true,
            },
            None,
        );
        if let Operand::Reg(r) = cond {
            let def_node = self.def_node_of(r);
            self.ddg.dag.add_edge(def_node, n, EdgeKind::Data);
            if !self.ddg.use_sites[def_node.index()].contains(&n) {
                self.ddg.use_sites[def_node.index()].push(n);
            }
            if !self.options.rename {
                self.readers.entry(r).or_default().push(n);
            }
        }
        // Branches are ordered after every pinned op since the previous
        // branch, and after that branch itself.
        if let Some(b) = self.last_branch {
            self.ddg.dag.add_edge(b, n, EdgeKind::Control);
        }
        for p in std::mem::take(&mut self.pinned_since_branch) {
            self.ddg.dag.add_edge(p, n, EdgeKind::Control);
        }
        self.last_branch = Some(n);

        // Any value live on the off-trace edge must be computed before
        // this branch; the branch is then a kill candidate for it.
        for off in [then_block, else_block] {
            if Some(off) == on_trace_next {
                continue;
            }
            for (orig, &(def_node, _)) in &self.current {
                if lv.live_into(off, *orig) {
                    self.ddg.dag.add_edge(def_node, n, EdgeKind::Control);
                    if !self.ddg.use_sites[def_node.index()].contains(&n) {
                        self.ddg.use_sites[def_node.index()].push(n);
                    }
                }
            }
        }
    }

    /// The renamed mapping for an original register, creating a live-in
    /// pseudo-node on first touch of a value defined before the trace.
    fn mapping_for(&mut self, orig: VirtualReg) -> (NodeId, VirtualReg) {
        if let Some(&m) = self.current.get(&orig) {
            return m;
        }
        let n = self
            .ddg
            .push_node(NodeKind::LiveIn { reg: orig }, Some(orig));
        self.current.insert(orig, (n, orig));
        (n, orig)
    }

    fn def_node_of(&self, renamed: VirtualReg) -> NodeId {
        self.current
            .values()
            .find(|&&(_, r)| r == renamed)
            .map(|&(n, _)| n)
            .expect("renamed register has a defining node")
    }

    fn mark_trace_live_out(&mut self, lv: &crate::trace::Liveness) {
        let last = *self.trace.blocks.last().expect("nonempty trace");
        for (orig, &(def_node, _)) in &self.current {
            if lv.live_out_of(last, *orig) {
                self.ddg.live_out[def_node.index()] = true;
            }
        }
        // Unused values are also killed at exit; kill_candidates handles
        // that dynamically, no flag needed.
    }

    fn anchor(&mut self) {
        let entry = self.ddg.entry;
        let exit = self.ddg.exit;
        let nodes: Vec<NodeId> = self.ddg.dag.nodes().collect();
        for n in nodes {
            if n == entry || n == exit {
                continue;
            }
            if self.ddg.dag.preds(n).next().is_none() {
                self.ddg.dag.add_edge(entry, n, EdgeKind::Control);
            }
            if self.ddg.dag.succs(n).next().is_none() {
                self.ddg.dag.add_edge(n, exit, EdgeKind::Control);
            }
        }
        // Degenerate single-instruction traces still need entry→exit
        // connectivity for hammock analysis.
        if self.ddg.dag.succs(entry).next().is_none() {
            self.ddg.dag.add_edge(entry, exit, EdgeKind::Control);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use ursa_graph::reach::Reachability;

    fn ddg_of(src: &str) -> DependenceDag {
        let p = parse(src).unwrap();
        DependenceDag::from_entry_block(&p)
    }

    #[test]
    fn straight_line_data_edges() {
        let d = ddg_of("v0 = load a[0]\nv1 = mul v0, 2\nstore a[0], v1\n");
        assert!(d.dag().is_acyclic());
        // entry, exit + 3 ops.
        assert_eq!(d.dag().node_count(), 5);
        let load = d.dag().node(2);
        let mul = d.dag().node(3);
        let store = d.dag().node(4);
        assert!(d.dag().has_edge_kind(load, mul, EdgeKind::Data));
        assert!(d.dag().has_edge_kind(mul, store, EdgeKind::Data));
        assert_eq!(d.uses_of(load), &[mul]);
        assert_eq!(d.value_def(load), Some(VirtualReg(0)));
        assert_eq!(d.value_def(store), None);
    }

    #[test]
    fn single_root_single_leaf() {
        let d = ddg_of("v0 = const 1\nv1 = const 2\nv2 = add v0, v1\n");
        assert_eq!(d.dag().roots(), vec![d.entry()]);
        assert_eq!(d.dag().leaves(), vec![d.exit()]);
    }

    #[test]
    fn renaming_removes_output_dependences() {
        // v0 redefined: the two definitions become independent values.
        let d = ddg_of("v0 = const 1\nstore a[0], v0\nv0 = const 2\nstore a[1], v0\n");
        let first = d.dag().node(2);
        let second = d.dag().node(4);
        assert_eq!(d.value_def(first), Some(VirtualReg(0)));
        let renamed = d.value_def(second).unwrap();
        assert_ne!(renamed, VirtualReg(0), "second def renamed");
        let r = Reachability::of(d.dag());
        assert!(r.independent(first, second));
    }

    #[test]
    fn aliasing_stores_are_ordered() {
        let d = ddg_of("store a[v9], 1\nstore a[v9], 2\n");
        // Nodes: entry, exit, livein v9, store1, store2.
        let s1 = d.dag().node(3);
        let s2 = d.dag().node(4);
        assert!(d.dag().has_edge_kind(s1, s2, EdgeKind::Memory));
    }

    #[test]
    fn distinct_constant_indices_not_ordered() {
        let d = ddg_of("store a[0], 1\nstore a[1], 2\n");
        let s1 = d.dag().node(2);
        let s2 = d.dag().node(3);
        assert!(!d.dag().has_edge(s1, s2));
        let r = Reachability::of(d.dag());
        assert!(r.independent(s1, s2));
    }

    #[test]
    fn load_after_aliasing_store_is_ordered() {
        let d = ddg_of("store a[0], 7\nv0 = load a[0]\nstore b[0], v0\n");
        let st = d.dag().node(2);
        let ld = d.dag().node(3);
        assert!(d.dag().has_edge_kind(st, ld, EdgeKind::Memory));
    }

    #[test]
    fn live_in_values_get_pseudo_nodes() {
        let d = ddg_of("v1 = add v0, 1\nstore a[0], v1\n");
        let livein = d.dag().node(2);
        assert_eq!(d.kind(livein), &NodeKind::LiveIn { reg: VirtualReg(0) });
        assert_eq!(d.value_def(livein), Some(VirtualReg(0)));
        assert!(!d.kind(livein).needs_fu());
        assert_eq!(d.fu_nodes().count(), 2);
    }

    #[test]
    fn unused_value_killed_at_exit() {
        let d = ddg_of("v0 = const 1\n");
        let n = d.dag().node(2);
        assert!(d.uses_of(n).is_empty());
        assert_eq!(d.kill_candidates(n), vec![d.exit()]);
    }

    #[test]
    fn multi_block_trace_branch_node_and_off_trace_liveness() {
        let p = parse(
            "block entry:\n\
             v0 = load a[0]\n\
             v1 = add v0, 1\n\
             br v1, hot, cold\n\
             block hot @ 0.9:\n\
             store a[1], v1\n\
             ret\n\
             block cold @ 0.1:\n\
             store a[2], v0\n\
             ret\n",
        )
        .unwrap();
        let trace = Trace { blocks: vec![0, 1] };
        let d = DependenceDag::build(&p, &trace);
        // Find the branch node.
        let branch = d
            .dag()
            .nodes()
            .find(|&n| matches!(d.kind(n), NodeKind::Branch { .. }))
            .expect("branch node exists");
        // v0 is live into `cold` (off-trace), so its def is control-tied
        // to the branch and the branch is a kill candidate of v0.
        let v0_def = d
            .dag()
            .nodes()
            .find(|&n| d.value_def(n) == Some(VirtualReg(0)))
            .unwrap();
        assert!(d.dag().has_edge(v0_def, branch));
        assert!(d.uses_of(v0_def).contains(&branch));
        // The on-trace store is pinned after the branch.
        let store = d
            .dag()
            .nodes()
            .find(|&n| d.instr(n).is_some_and(Instr::has_side_effect))
            .unwrap();
        assert!(d.dag().has_edge_kind(branch, store, EdgeKind::Control));
    }

    #[test]
    fn speculative_loads_float_above_branches() {
        let p = parse(
            "block entry:\n\
             v0 = const 1\n\
             br v0, next, other\n\
             block next:\n\
             v1 = load a[0]\n\
             store b[0], v1\n\
             ret\n\
             block other:\n\
             ret\n",
        )
        .unwrap();
        let trace = Trace { blocks: vec![0, 1] };
        let spec = DependenceDag::build(&p, &trace);
        let branch = spec
            .dag()
            .nodes()
            .find(|&n| matches!(spec.kind(n), NodeKind::Branch { .. }))
            .unwrap();
        let load = spec
            .dag()
            .nodes()
            .find(|&n| spec.instr(n).is_some_and(|i| i.mem_read().is_some()))
            .unwrap();
        let r = Reachability::of(spec.dag());
        assert!(
            r.independent(branch, load),
            "speculative load may move above the branch"
        );

        let pinned = DependenceDag::build_with(
            &p,
            &trace,
            DdgOptions {
                speculative_loads: false,
                ..DdgOptions::default()
            },
        );
        let branch = pinned
            .dag()
            .nodes()
            .find(|&n| matches!(pinned.kind(n), NodeKind::Branch { .. }))
            .unwrap();
        let load = pinned
            .dag()
            .nodes()
            .find(|&n| pinned.instr(n).is_some_and(|i| i.mem_read().is_some()))
            .unwrap();
        let r = Reachability::of(pinned.dag());
        assert!(
            r.reaches(branch, load),
            "pinned load stays below the branch"
        );
    }

    #[test]
    fn insert_spill_rewires_uses() {
        let mut d = ddg_of(
            "v0 = const 1\nv1 = add v0, 2\nv2 = mul v0, 3\nstore a[0], v1\nstore a[1], v2\n",
        );
        let def = d.dag().node(2);
        let add = d.dag().node(3);
        let mul = d.dag().node(4);
        assert_eq!(d.uses_of(def), &[add, mul]);
        let pair = d.insert_spill(def, &[mul]);
        assert!(d.dag().is_acyclic());
        // def feeds the store; reload feeds mul; add still reads def.
        assert!(d.dag().has_edge_kind(def, pair.store, EdgeKind::Data));
        assert!(d
            .dag()
            .has_edge_kind(pair.store, pair.load, EdgeKind::Memory));
        assert!(d.dag().has_edge_kind(pair.load, mul, EdgeKind::Data));
        assert!(!d.dag().has_edge(def, mul));
        assert!(d.uses_of(def).contains(&add));
        assert!(d.uses_of(def).contains(&pair.store));
        assert_eq!(d.uses_of(pair.load), &[mul]);
        // mul's instruction now reads the reload register.
        let reload_reg = d.value_def(pair.load).unwrap();
        assert!(d.instr(mul).unwrap().uses().contains(&reload_reg));
        // The spill symbol was interned.
        assert!(d.symbols().iter().any(|s| s == "__spill"));
    }

    #[test]
    #[should_panic(expected = "is not a use")]
    fn spill_of_non_use_panics() {
        let mut d = ddg_of("v0 = const 1\nv1 = const 2\nstore a[0], v0\nstore a[1], v1\n");
        let def = d.dag().node(2);
        let other_store = d.dag().node(5);
        d.insert_spill(def, &[other_store]);
    }

    #[test]
    fn live_out_transfers_to_reload() {
        let p = parse(
            "block entry:\n\
             v0 = const 5\n\
             v1 = add v0, 1\n\
             jmp next\n\
             block next:\n\
             store a[0], v0\n\
             ret\n",
        )
        .unwrap();
        let trace = Trace { blocks: vec![0] };
        let mut d = DependenceDag::build(&p, &trace);
        let def = d
            .dag()
            .nodes()
            .find(|&n| d.value_def(n) == Some(VirtualReg(0)))
            .unwrap();
        assert!(d.is_live_out(def), "v0 used by the next block");
        let use_node = d.uses_of(def)[0];
        let pair = d.insert_spill(def, &[use_node]);
        assert!(!d.is_live_out(def));
        assert!(d.is_live_out(pair.load));
    }

    #[test]
    fn anti_dependences_without_renaming() {
        let p = parse("v0 = const 1\nstore a[0], v0\nv0 = const 2\nstore a[1], v0\n").unwrap();
        let d = DependenceDag::build_with(
            &p,
            &Trace::single(0),
            DdgOptions {
                rename: false,
                ..DdgOptions::default()
            },
        );
        let def1 = d.dag().node(2);
        let use1 = d.dag().node(3);
        let def2 = d.dag().node(4);
        // Same register kept; output and anti edges serialize the reuse.
        assert_eq!(d.value_def(def2), Some(VirtualReg(0)));
        assert!(d.dag().has_edge_kind(def1, def2, EdgeKind::Anti));
        assert!(d.dag().has_edge_kind(use1, def2, EdgeKind::Anti));
        let r = Reachability::of(d.dag());
        assert!(r.reaches(def1, def2), "reuse is ordered");
    }

    #[test]
    fn describe_is_nonempty_for_all_kinds() {
        let d = ddg_of("v1 = add v0, 1\n");
        for n in d.dag().nodes() {
            assert!(!d.describe(n).is_empty());
        }
    }
}
