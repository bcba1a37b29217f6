//! Resource-constrained list scheduling.
//!
//! After URSA's allocation phase the DAG is guaranteed to fit the
//! machine, and any greedy schedule will do; this module provides the
//! cycle-by-cycle list scheduler used by the assignment phase and by
//! the baseline phase orderings. Priority is the classic critical-path
//! distance to the exit. Functional units are non-pipelined: a unit
//! stays busy for the instruction's full latency (paper §3.2 model).

use crate::error::CompileError;
use std::collections::HashMap;
use ursa_graph::dag::NodeId;
use ursa_graph::order::Levels;
use ursa_ir::ddg::{DependenceDag, NodeKind};
use ursa_machine::{FuClass, Machine, OpKind};

/// One scheduled instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledOp {
    /// The DAG node.
    pub node: NodeId,
    /// Issue cycle.
    pub cycle: u64,
    /// Functional-unit class and index within the class.
    pub fu: (FuClass, u32),
}

/// A complete schedule of a dependence DAG.
#[derive(Clone, Debug)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
    start: HashMap<NodeId, u64>,
    length: u64,
}

impl Schedule {
    /// Assembles a schedule from raw parts (used by alternative
    /// scheduler implementations in this crate).
    pub(crate) fn from_parts(
        ops: Vec<ScheduledOp>,
        start: HashMap<NodeId, u64>,
        length: u64,
    ) -> Self {
        Schedule { ops, start, length }
    }

    /// The scheduled operations, ordered by cycle then unit.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Issue cycle of `node`, if it was scheduled (pseudo nodes are not).
    pub fn start_of(&self, node: NodeId) -> Option<u64> {
        self.start.get(&node).copied()
    }

    /// Total schedule length in cycles.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Number of instructions scheduled.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Validates the schedule against the DAG and machine: every FU
    /// node scheduled exactly once, dependences respected with
    /// latencies, and no functional unit oversubscribed. Returns the
    /// first violation found.
    pub fn validate(&self, ddg: &DependenceDag, machine: &Machine) -> Result<(), String> {
        // Coverage.
        for n in ddg.fu_nodes() {
            if !self.start.contains_key(&n) {
                return Err(format!("node {n} ({}) not scheduled", ddg.describe(n)));
            }
        }
        // Dependences: a successor may not issue before its predecessor
        // finishes.
        for n in ddg.fu_nodes() {
            let start = self.start[&n];
            for p in ddg.dag().preds(n) {
                if let Some(pstart) = self.start.get(&p) {
                    let plat = node_latency(ddg, machine, p);
                    if start < pstart + plat {
                        return Err(format!(
                            "{n} issues at {start}, before {p} finishes at {}",
                            pstart + plat
                        ));
                    }
                }
            }
        }
        // FU capacity: busy intervals (full latency when non-pipelined,
        // one cycle when pipelined) must not overlap per (class, index),
        // and indices must be within the class count.
        let mut busy: HashMap<(FuClass, u32), Vec<(u64, u64)>> = HashMap::new();
        for op in &self.ops {
            let (class, index) = op.fu;
            if index >= machine.fu_count(class) {
                return Err(format!(
                    "{} uses {class} unit {index}, machine has {}",
                    op.node,
                    machine.fu_count(class)
                ));
            }
            let lat = node_occupancy(ddg, machine, op.node);
            let iv = (op.cycle, op.cycle + lat);
            let list = busy.entry(op.fu).or_default();
            for &(s, e) in list.iter() {
                if iv.0 < e && s < iv.1 {
                    return Err(format!(
                        "unit {class}#{index} double-booked at cycles {:?} and {iv:?}",
                        (s, e)
                    ));
                }
            }
            list.push(iv);
        }
        Ok(())
    }
}

/// Latency of a node under `machine` (0 for pseudo nodes).
pub fn node_latency(ddg: &DependenceDag, machine: &Machine, n: NodeId) -> u64 {
    match ddg.kind(n) {
        NodeKind::Op { instr, .. } => machine.instr_latency(instr),
        NodeKind::Branch { .. } => machine.latency_of(OpKind::Branch),
        NodeKind::Entry | NodeKind::Exit | NodeKind::LiveIn { .. } => 0,
    }
}

/// Cycles a node occupies its functional unit (1 on pipelined
/// machines, the full latency otherwise; 0 for pseudo nodes).
pub fn node_occupancy(ddg: &DependenceDag, machine: &Machine, n: NodeId) -> u64 {
    match ddg.kind(n) {
        NodeKind::Op { instr, .. } => machine.instr_occupancy(instr),
        NodeKind::Branch { .. } => machine.occupancy_of(OpKind::Branch),
        NodeKind::Entry | NodeKind::Exit | NodeKind::LiveIn { .. } => 0,
    }
}

/// The functional-unit class a node needs, if any.
pub fn node_class(ddg: &DependenceDag, machine: &Machine, n: NodeId) -> Option<FuClass> {
    match ddg.kind(n) {
        NodeKind::Op { instr, .. } => Some(machine.instr_class(instr)),
        NodeKind::Branch { .. } => Some(machine.class_of(OpKind::Branch)),
        _ => None,
    }
}

/// List-schedules `ddg` on `machine`, panicking on any
/// [`try_list_schedule`] error.
///
/// # Panics
///
/// Panics if the DAG is cyclic, if the machine lacks a needed unit
/// class, or if the scheduler trips its progress bound.
pub fn list_schedule(ddg: &DependenceDag, machine: &Machine) -> Schedule {
    try_list_schedule(ddg, machine).unwrap_or_else(|e| panic!("list_schedule: {e}"))
}

/// List-schedules `ddg` on `machine`, honoring dependences, latencies
/// and functional-unit counts (registers are *not* constrained here —
/// URSA guarantees them, and the postpass baseline deliberately ignores
/// them at this stage).
///
/// # Errors
///
/// [`CompileError::MissingUnit`] when an operation's class has no unit
/// on the machine; [`CompileError::SchedulerStalled`] when the safety
/// bound on scheduling cycles trips (a correct scheduler stays well
/// within it).
pub fn try_list_schedule(ddg: &DependenceDag, machine: &Machine) -> Result<Schedule, CompileError> {
    if let Some(plan) = ursa_core::fault::trip(ursa_core::FaultSite::Schedule) {
        match plan.kind {
            ursa_core::FaultKind::Panic => {
                ursa_core::fault::trip_panic(ursa_core::FaultSite::Schedule)
            }
            // The scheduler has no cooperative meter; any other injected
            // fault surfaces as the stage's typed no-progress error.
            _ => {
                return Err(CompileError::SchedulerStalled {
                    scheduler: "list (injected fault)",
                    cycle: 0,
                })
            }
        }
    }
    let weights: Vec<u64> = ddg
        .dag()
        .nodes()
        .map(|n| node_latency(ddg, machine, n))
        .collect();
    let levels = Levels::weighted(ddg.dag(), &weights);
    let critical = levels.critical_path();

    let n = ddg.dag().node_count();
    // finish[v] = cycle at which v's result is available.
    let mut finish: Vec<Option<u64>> = vec![None; n];
    let mut remaining_preds: Vec<usize> = ddg
        .dag()
        .nodes()
        .map(|v| {
            let mut seen = std::collections::HashSet::new();
            ddg.dag().preds(v).filter(|p| seen.insert(*p)).count()
        })
        .collect();

    // Pseudo nodes complete immediately once their predecessors do.
    let mut ready: Vec<NodeId> = Vec::new();
    let mut pending = 0usize;
    for v in ddg.dag().nodes() {
        if remaining_preds[v.index()] == 0 {
            ready.push(v);
        }
        pending += 1;
    }

    let mut ops = Vec::new();
    let mut start = HashMap::new();
    // Busy-until per concrete unit.
    let mut unit_free: HashMap<FuClass, Vec<u64>> = machine
        .fu_classes()
        .iter()
        .map(|&(c, k)| (c, vec![0u64; k as usize]))
        .collect();

    let mut cycle: u64 = 0;
    // earliest[v]: data-ready cycle (max pred finish).
    let mut earliest: Vec<u64> = vec![0; n];

    while pending > 0 {
        // Settle pseudo nodes that are ready at or before this cycle.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < ready.len() {
                let v = ready[i];
                let is_pseudo = node_class(ddg, machine, v).is_none();
                if is_pseudo && earliest[v.index()] <= cycle {
                    ready.swap_remove(i);
                    finish[v.index()] = Some(cycle);
                    pending -= 1;
                    progressed = true;
                    release_succs(
                        ddg,
                        v,
                        cycle,
                        &mut remaining_preds,
                        &mut earliest,
                        &mut ready,
                    );
                } else {
                    i += 1;
                }
            }
        }
        // Issue real ops: highest priority (longest path to exit) first.
        let mut issuable: Vec<NodeId> = ready
            .iter()
            .copied()
            .filter(|&v| node_class(ddg, machine, v).is_some() && earliest[v.index()] <= cycle)
            .collect();
        issuable.sort_by_key(|&v| {
            // Max priority = min alap; tie on node id for determinism.
            (levels.alap(v), v)
        });
        for v in issuable {
            let class = node_class(ddg, machine, v).expect("real op");
            let lat = node_latency(ddg, machine, v);
            let Some(units) = unit_free.get_mut(&class) else {
                return Err(CompileError::MissingUnit { class });
            };
            let Some(idx) = units.iter().position(|&f| f <= cycle) else {
                continue; // all units of this class busy this cycle
            };
            units[idx] = cycle + node_occupancy(ddg, machine, v);
            ops.push(ScheduledOp {
                node: v,
                cycle,
                fu: (class, idx as u32),
            });
            start.insert(v, cycle);
            finish[v.index()] = Some(cycle + lat);
            let pos = ready.iter().position(|&r| r == v).expect("was ready");
            ready.swap_remove(pos);
            pending -= 1;
            release_succs(
                ddg,
                v,
                cycle + lat,
                &mut remaining_preds,
                &mut earliest,
                &mut ready,
            );
        }
        cycle += 1;
        // Safety valve: a correct scheduler always terminates well within
        // this bound.
        if cycle > critical + (ddg.dag().node_count() as u64 + 2) * (critical.max(1) + 1) {
            return Err(CompileError::SchedulerStalled {
                scheduler: "list scheduler",
                cycle,
            });
        }
    }

    let length = ops
        .iter()
        .map(|op| op.cycle + node_latency(ddg, machine, op.node))
        .max()
        .unwrap_or(0);
    ops.sort_by_key(|op| (op.cycle, op.fu.0 as u32, op.fu.1));
    Ok(Schedule { ops, start, length })
}

fn release_succs(
    ddg: &DependenceDag,
    v: NodeId,
    avail: u64,
    remaining_preds: &mut [usize],
    earliest: &mut [u64],
    ready: &mut Vec<NodeId>,
) {
    let mut seen = std::collections::HashSet::new();
    for s in ddg.dag().succs(v) {
        if !seen.insert(s) {
            continue;
        }
        earliest[s.index()] = earliest[s.index()].max(avail);
        remaining_preds[s.index()] -= 1;
        if remaining_preds[s.index()] == 0 {
            ready.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_ir::parser::parse;

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

    fn ddg_of(src: &str) -> DependenceDag {
        DependenceDag::from_entry_block(&parse(src).unwrap())
    }

    #[test]
    fn figure2_unbounded_schedule_hits_critical_path() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(8, 32);
        let s = list_schedule(&ddg, &machine);
        assert_eq!(s.length(), 5, "A;B|C|D;E|F|G|H;I|J;K");
        s.validate(&ddg, &machine).unwrap();
        assert_eq!(s.op_count(), 11);
    }

    #[test]
    fn one_fu_schedule_is_sequential() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(1, 32);
        let s = list_schedule(&ddg, &machine);
        assert_eq!(s.length(), 11, "one op per cycle");
        s.validate(&ddg, &machine).unwrap();
    }

    #[test]
    fn width_respects_fu_count() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(2, 32);
        let s = list_schedule(&ddg, &machine);
        s.validate(&ddg, &machine).unwrap();
        for c in 0..s.length() {
            let per_cycle = s.ops().iter().filter(|o| o.cycle == c).count();
            assert!(per_cycle <= 2, "cycle {c} issues {per_cycle}");
        }
        assert!(s.length() >= 6, "11 ops / 2 units rounds up to 6");
    }

    #[test]
    fn latencies_delay_dependents() {
        let ddg = ddg_of("v0 = load a[0]\nv1 = mul v0, 2\nstore b[0], v1\n");
        let machine = Machine::classic_vliw();
        let s = list_schedule(&ddg, &machine);
        s.validate(&ddg, &machine).unwrap();
        // load (2 cycles) -> mul (3) -> store (1).
        assert_eq!(s.length(), 6);
    }

    #[test]
    fn sequence_edges_constrain_schedule() {
        use ursa_graph::dag::NodeId;
        let mut ddg = ddg_of("v0 = const 1\nv1 = const 2\nstore a[0], v0\nstore a[1], v1\n");
        let machine = Machine::homogeneous(4, 32);
        let before = list_schedule(&ddg, &machine);
        assert_eq!(before.length(), 2);
        // Force the two consts apart.
        ddg.add_sequence_edge(NodeId(2), NodeId(3));
        let after = list_schedule(&ddg, &machine);
        after.validate(&ddg, &machine).unwrap();
        assert!(after.start_of(NodeId(3)).unwrap() >= 1);
    }

    #[test]
    fn classed_machine_routes_to_units() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::classic_vliw();
        let s = list_schedule(&ddg, &machine);
        s.validate(&ddg, &machine).unwrap();
        // The four muls must run on the two mul units.
        let mul_ops: Vec<_> = s.ops().iter().filter(|o| o.fu.0 == FuClass::Mul).collect();
        assert_eq!(mul_ops.len(), 4);
        assert!(mul_ops.iter().all(|o| o.fu.1 < 2));
    }

    #[test]
    fn validate_catches_missing_node() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(4, 32);
        let mut s = list_schedule(&ddg, &machine);
        s.ops.pop();
        // Remove a node from the start map to simulate a hole.
        let some_node = ddg.fu_nodes().next().unwrap();
        s.start.remove(&some_node);
        assert!(s.validate(&ddg, &machine).is_err());
    }

    #[test]
    fn empty_block_schedules_empty() {
        let ddg = ddg_of("# nothing\n");
        let machine = Machine::homogeneous(2, 4);
        let s = list_schedule(&ddg, &machine);
        assert_eq!(s.op_count(), 0);
        assert_eq!(s.length(), 0);
    }
}
