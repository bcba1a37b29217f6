//! Goodman–Hsu-style integrated prepass scheduling [GoH88].
//!
//! The DAG-driven technique the paper cites as closest related work:
//! a list scheduler that watches the number of available registers
//! (AVLREG) and switches between *code scheduling for parallelism*
//! (CSP) and *code scheduling to reduce register pressure* (CSR,
//! preferring instructions that free registers) as the file fills.
//! Crucially — and this is the limitation URSA's authors point out —
//! it "does not have a mechanism for inserting spill code": when even
//! the most frugal instruction cannot be issued within the register
//! budget, this implementation force-issues it and records an
//! *overflow event* (the generated code then needs more registers than
//! the machine has).

use crate::error::CompileError;
use crate::schedule::{node_class, node_latency, node_occupancy, Schedule, ScheduledOp};
use std::collections::{HashMap, HashSet};
use ursa_graph::dag::NodeId;
use ursa_graph::order::Levels;
use ursa_ir::ddg::DependenceDag;
use ursa_machine::{FuClass, Machine};

/// Register behavior of a Goodman–Hsu run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IpsStats {
    /// The maximum number of simultaneously live values.
    pub max_live: u32,
    /// Times an instruction was issued despite exceeding the register
    /// budget (the technique has no spill mechanism).
    pub overflow_events: u32,
}

/// When AVLREG drops to this bound or below, the scheduler switches
/// from CSP to CSR priorities (Goodman & Hsu's threshold).
const CSR_THRESHOLD: u32 = 2;

/// Schedules `ddg` with register-pressure-aware list scheduling,
/// panicking on any [`try_ips_schedule`] error.
pub fn ips_schedule(ddg: &DependenceDag, machine: &Machine) -> (Schedule, IpsStats) {
    try_ips_schedule(ddg, machine).unwrap_or_else(|e| panic!("ips_schedule: {e}"))
}

/// Schedules `ddg` with register-pressure-aware list scheduling.
///
/// # Errors
///
/// [`CompileError::MissingUnit`] when an operation's class has no unit
/// on the machine; [`CompileError::SchedulerStalled`] when the safety
/// bound on scheduling cycles trips.
pub fn try_ips_schedule(
    ddg: &DependenceDag,
    machine: &Machine,
) -> Result<(Schedule, IpsStats), CompileError> {
    let regs = machine.registers();
    // Refuse early when the machine cannot execute some operation at
    // all — without this the budget loop would stall on it forever.
    for v in ddg.fu_nodes() {
        if let Some(class) = node_class(ddg, machine, v) {
            if machine.fu_count(class) == 0 {
                return Err(CompileError::MissingUnit { class });
            }
        }
    }
    let weights: Vec<u64> = ddg
        .dag()
        .nodes()
        .map(|n| node_latency(ddg, machine, n))
        .collect();
    let levels = Levels::weighted(ddg.dag(), &weights);

    let n = ddg.dag().node_count();
    let exit = ddg.exit();
    let mut remaining_preds: Vec<usize> = ddg
        .dag()
        .nodes()
        .map(|v| {
            let mut seen = HashSet::new();
            ddg.dag().preds(v).filter(|p| seen.insert(*p)).count()
        })
        .collect();
    // Remaining reader counts per producing node.
    let mut remaining_reads: HashMap<NodeId, usize> = ddg
        .value_nodes()
        .map(|v| (v, ddg.uses_of(v).iter().filter(|&&u| u != exit).count()))
        .collect();
    let live_out: HashSet<NodeId> = ddg.value_nodes().filter(|&v| ddg.is_live_out(v)).collect();

    let mut ready: Vec<NodeId> = Vec::new();
    let mut earliest: Vec<u64> = vec![0; n];
    let mut pending = 0usize;
    for v in ddg.dag().nodes() {
        if remaining_preds[v.index()] == 0 {
            ready.push(v);
        }
        pending += 1;
    }

    let mut ops: Vec<ScheduledOp> = Vec::new();
    let mut start: HashMap<NodeId, u64> = HashMap::new();
    let mut unit_free: HashMap<FuClass, Vec<u64>> = machine
        .fu_classes()
        .iter()
        .map(|&(c, k)| (c, vec![0u64; k as usize]))
        .collect();

    // Live value tracking: producer node -> live?
    let mut live: u32 = ddg
        .value_nodes()
        .filter(|&v| matches!(ddg.kind(v), ursa_ir::ddg::NodeKind::LiveIn { .. }))
        .count() as u32;
    let mut stats = IpsStats {
        max_live: live,
        overflow_events: 0,
    };
    let mut in_flight: Vec<u64> = Vec::new(); // finish times of issued ops

    let mut cycle: u64 = 0;
    while pending > 0 {
        // Settle pseudo nodes.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < ready.len() {
                let v = ready[i];
                if node_class(ddg, machine, v).is_none() && earliest[v.index()] <= cycle {
                    ready.swap_remove(i);
                    pending -= 1;
                    progressed = true;
                    release(
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

        let mut issued_this_cycle = false;
        loop {
            // Candidate metrics.
            let mut candidates: Vec<(NodeId, i64, u64)> = Vec::new(); // (node, delta, alap)
            for &v in &ready {
                if node_class(ddg, machine, v).is_none() || earliest[v.index()] > cycle {
                    continue;
                }
                let defines = i64::from(ddg.value_def(v).is_some());
                let dying = dying_operands(ddg, v, &remaining_reads, &live_out) as i64;
                candidates.push((v, defines - dying, levels.alap(v)));
            }
            if candidates.is_empty() {
                break;
            }
            let avlreg = regs.saturating_sub(live);
            // CSP: longest path first. CSR: register-freeing first.
            if avlreg > CSR_THRESHOLD {
                candidates.sort_by_key(|&(v, _, alap)| (alap, v));
            } else {
                candidates.sort_by_key(|&(v, delta, alap)| (delta, alap, v));
            }
            // Issue the best candidate that fits the budget and a unit.
            let mut issued = None;
            let mut fits_budget_exists = false;
            for &(v, delta, _) in &candidates {
                let live_after = (live as i64 + delta).max(0) as u32;
                if live_after <= regs {
                    fits_budget_exists = true;
                    if let Some(fu) = try_issue(ddg, machine, v, cycle, &mut unit_free) {
                        issued = Some((v, delta, fu, false));
                        break;
                    }
                }
            }
            // Deadlock: nothing fits the budget, nothing in flight will
            // free a register, and no candidate was issued this cycle.
            if issued.is_none()
                && !fits_budget_exists
                && !issued_this_cycle
                && in_flight.iter().all(|&f| f <= cycle)
            {
                for &(v, delta, _) in &candidates {
                    if let Some(fu) = try_issue(ddg, machine, v, cycle, &mut unit_free) {
                        issued = Some((v, delta, fu, true));
                        break;
                    }
                }
            }
            let Some((v, _, fu, overflowed)) = issued else {
                break;
            };
            if overflowed {
                stats.overflow_events += 1;
            }
            let lat = node_latency(ddg, machine, v);
            ops.push(ScheduledOp { node: v, cycle, fu });
            start.insert(v, cycle);
            in_flight.push(cycle + lat);
            let pos = ready.iter().position(|&r| r == v).expect("ready");
            ready.swap_remove(pos);
            pending -= 1;
            issued_this_cycle = true;
            // Update liveness.
            consume_operands(ddg, v, &mut remaining_reads, &live_out, &mut live);
            if ddg.value_def(v).is_some() {
                live += 1;
                // Dead definitions don't stay live.
                if remaining_reads.get(&v) == Some(&0) && !live_out.contains(&v) {
                    live -= 1;
                }
            }
            stats.max_live = stats.max_live.max(live);
            release(
                ddg,
                v,
                cycle + lat,
                &mut remaining_preds,
                &mut earliest,
                &mut ready,
            );
        }
        cycle += 1;
        if cycle > (n as u64 + 2) * (levels.critical_path().max(1) + 1) {
            return Err(CompileError::SchedulerStalled {
                scheduler: "IPS scheduler",
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
    Ok((Schedule::from_parts(ops, start, length), stats))
}

fn try_issue(
    ddg: &DependenceDag,
    machine: &Machine,
    v: NodeId,
    cycle: u64,
    unit_free: &mut HashMap<FuClass, Vec<u64>>,
) -> Option<(FuClass, u32)> {
    let class = node_class(ddg, machine, v).expect("real op");
    let occ = node_occupancy(ddg, machine, v);
    let units = unit_free.get_mut(&class)?;
    let idx = units.iter().position(|&f| f <= cycle)?;
    units[idx] = cycle + occ;
    Some((class, idx as u32))
}

fn dying_operands(
    ddg: &DependenceDag,
    v: NodeId,
    remaining_reads: &HashMap<NodeId, usize>,
    live_out: &HashSet<NodeId>,
) -> usize {
    let mut producers: Vec<NodeId> = ddg
        .dag()
        .preds(v)
        .filter(|&p| ddg.value_def(p).is_some() && ddg.uses_of(p).contains(&v))
        .collect();
    producers.sort_unstable();
    producers.dedup();
    producers
        .into_iter()
        .filter(|p| {
            !live_out.contains(p)
                && remaining_reads.get(p).is_some_and(|&r| {
                    // This op is the only remaining reader.
                    r == 1
                })
        })
        .count()
}

fn consume_operands(
    ddg: &DependenceDag,
    v: NodeId,
    remaining_reads: &mut HashMap<NodeId, usize>,
    live_out: &HashSet<NodeId>,
    live: &mut u32,
) {
    let mut producers: Vec<NodeId> = ddg
        .dag()
        .preds(v)
        .filter(|&p| ddg.value_def(p).is_some() && ddg.uses_of(p).contains(&v))
        .collect();
    producers.sort_unstable();
    producers.dedup();
    for p in producers {
        if let Some(r) = remaining_reads.get_mut(&p) {
            *r -= 1;
            if *r == 0 && !live_out.contains(&p) {
                *live = live.saturating_sub(1);
            }
        }
    }
}

fn release(
    ddg: &DependenceDag,
    v: NodeId,
    avail: u64,
    remaining_preds: &mut [usize],
    earliest: &mut [u64],
    ready: &mut Vec<NodeId>,
) {
    let mut seen = HashSet::new();
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
    use crate::schedule::list_schedule;
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
    fn matches_list_schedule_when_registers_ample() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(8, 16);
        let (s, stats) = ips_schedule(&ddg, &machine);
        s.validate(&ddg, &machine).unwrap();
        assert_eq!(stats.overflow_events, 0);
        let plain = list_schedule(&ddg, &machine);
        assert_eq!(
            s.length(),
            plain.length(),
            "CSP mode = plain list scheduling"
        );
    }

    #[test]
    fn pressure_mode_trades_length_for_registers() {
        let ddg = ddg_of(FIG2);
        let wide = Machine::homogeneous(8, 16);
        let tight = Machine::homogeneous(8, 4);
        let (s_wide, st_wide) = ips_schedule(&ddg, &wide);
        let (s_tight, st_tight) = ips_schedule(&ddg, &tight);
        s_tight.validate(&ddg, &tight).unwrap();
        assert!(st_tight.max_live <= st_wide.max_live.max(4) + st_tight.overflow_events);
        assert!(s_tight.length() >= s_wide.length());
    }

    #[test]
    fn respects_budget_or_reports_overflow() {
        let ddg = ddg_of(FIG2);
        for regs in [3u32, 4, 5, 8] {
            let machine = Machine::homogeneous(4, regs);
            let (s, stats) = ips_schedule(&ddg, &machine);
            s.validate(&ddg, &machine).unwrap();
            if stats.overflow_events == 0 {
                assert!(
                    stats.max_live <= regs,
                    "no overflow reported but max_live {} > {regs}",
                    stats.max_live
                );
            }
        }
    }

    #[test]
    fn schedules_every_op_exactly_once() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(2, 4);
        let (s, _) = ips_schedule(&ddg, &machine);
        assert_eq!(s.op_count(), 11);
        s.validate(&ddg, &machine).unwrap();
    }
}
