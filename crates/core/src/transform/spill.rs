//! Spill-based register requirement reduction (paper §4.3).
//!
//! Spilling handles the values register sequentialization cannot:
//! values that *bridge* the stage split — computed before (or parallel
//! to) stage 1 but needed only by the delayed sub-DAG SD2, like node D
//! in the worked example, whose value would otherwise stay alive
//! throughout B, C, E, F. Per the paper, "the roots of SD2 are computed
//! and their values are spilled prior to SD1's roots. The reloads of
//! the values are placed after SD1's leaves."
//!
//! Like [`super::reg_seq`], the stage boundary is anchored at a kill
//! point of the excessive set; the delayed chains and the values
//! feeding them from outside are identified, and candidates are chosen
//! by tentative re-measurement (§5's integrated evaluation).

use crate::ctx::AllocCtx;
use crate::excess::ExcessiveChainSet;
use crate::fault::{self, FaultKind, FaultSite};
use crate::kill::{select_kills_metered, KillMap};
use crate::measure::{requirement_only_metered, MeasureOptions};
use crate::resource::ResourceKind;
use crate::transform::reg_seq::cap_boundaries;
use crate::transform::{TransformError, TransformReport};
use ursa_graph::bitset::BitSet;
use ursa_graph::dag::NodeId;
use ursa_graph::meter::{Unmetered, WorkMeter};

/// Most spill candidates evaluated by tentative re-measurement per
/// invocation (the counterpart of [`cap_boundaries`]'s boundary cap).
const MAX_SCORED_CANDIDATES: usize = 12;

/// A candidate stage boundary with its bridging victims.
#[derive(Clone)]
struct Candidate {
    boundary: NodeId,
    /// Heads of the chains that stay in stage 1.
    sd1_heads: Vec<NodeId>,
    /// Tails of the chains that stay in stage 1.
    sd1_tails: Vec<NodeId>,
    /// `(victim, uses to rewire to the reload)`.
    victims: Vec<(NodeId, Vec<NodeId>)>,
}

/// Spills the values feeding a delayed sub-DAG across a stage boundary,
/// rewiring those uses to reloads sequenced after stage 1.
///
/// # Errors
///
/// [`TransformError::NoCandidate`] if no boundary has a bridging value
/// or no candidate reduces the measured requirement.
pub fn spill_registers(
    ctx: &mut AllocCtx<'_>,
    excess_set: &ExcessiveChainSet,
    kills: &KillMap,
    options: MeasureOptions,
) -> Result<TransformReport, TransformError> {
    spill_registers_metered(ctx, excess_set, kills, options, &Unmetered)
}

/// [`spill_registers`] with a cooperative [`WorkMeter`]. Candidate
/// generation is cheap and always runs; the tentative apply+re-measure
/// scoring loop checkpoints per candidate and, on exhaustion, picks the
/// best candidate scored so far (a typed `NoCandidate` error if none
/// was).
pub fn spill_registers_metered(
    ctx: &mut AllocCtx<'_>,
    excess_set: &ExcessiveChainSet,
    kills: &KillMap,
    options: MeasureOptions,
    meter: &dyn WorkMeter,
) -> Result<TransformReport, TransformError> {
    if let Some(plan) = fault::trip(FaultSite::Spill) {
        match plan.kind {
            FaultKind::Panic => fault::trip_panic(FaultSite::Spill),
            FaultKind::Refuse => {
                return Err(TransformError::NoCandidate("injected allocation failure"))
            }
            _ => meter.starve(),
        }
    }
    let capacity = excess_set.resource.capacity(ctx.machine());
    let x = excess_set.excess_over(capacity) as usize;
    if x == 0 {
        return Err(TransformError::NoCandidate("no excess to remove"));
    }
    let required_before = excess_set.chains.len() as u32;
    let exit = ctx.ddg().exit();
    let n = ctx.ddg().dag().node_count();

    // Candidate boundaries: kill points of the excessive values.
    let mut boundaries: Vec<NodeId> = Vec::new();
    for chain in &excess_set.chains {
        for node in [chain[0], *chain.last().expect("nonempty")] {
            if let Some(k) = kills.kill_of(node) {
                if k != exit && !boundaries.contains(&k) {
                    boundaries.push(k);
                }
            }
        }
    }
    if boundaries.is_empty() {
        return Err(TransformError::NoCandidate(
            "every value of the excessive set lives to the exit",
        ));
    }
    cap_boundaries(ctx, kills, excess_set, &mut boundaries);

    let heads = excess_set.heads();
    let mut candidates: Vec<Candidate> = Vec::new();
    for &s in &boundaries {
        // SD2: the excessive chains delayable past the boundary.
        let delayed: Vec<usize> = (0..excess_set.chains.len())
            .filter(|&i| {
                let h = excess_set.chains[i][0];
                h != s && !ctx.reach().reaches(h, s)
            })
            .collect();
        if delayed.is_empty() || delayed.len() == heads.len() {
            continue;
        }
        let mut delayed_region = BitSet::new(n);
        for &i in &delayed {
            let h = excess_set.chains[i][0];
            delayed_region.insert(h.index());
            delayed_region.union_with(&ctx.reach().descendants(h));
        }
        let sd1_heads: Vec<NodeId> = (0..excess_set.chains.len())
            .filter(|i| !delayed.contains(i))
            .map(|i| excess_set.chains[i][0])
            .collect();
        let sd1_tails: Vec<NodeId> = (0..excess_set.chains.len())
            .filter(|i| !delayed.contains(i))
            .map(|i| *excess_set.chains[i].last().expect("nonempty"))
            .collect();

        // Victims: producers outside the delayed region whose values
        // feed it — their registers would otherwise bridge stage 1.
        let mut victims: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for v in ctx.ddg().value_nodes() {
            if v == s || delayed_region.contains(v.index()) || ctx.reach().reaches(s, v) {
                continue;
            }
            let beyond: Vec<NodeId> = ctx
                .ddg()
                .uses_of(v)
                .iter()
                .copied()
                .filter(|&u| delayed_region.contains(u.index()))
                .collect();
            if beyond.is_empty() {
                continue;
            }
            let bridges = match kills.kill_of(v) {
                Some(k) => beyond.contains(&k) || k == exit,
                None => false,
            };
            if bridges {
                victims.push((v, beyond));
            }
        }
        if victims.is_empty() {
            continue;
        }
        // Longest bridge first.
        victims.sort_by_key(|(v, beyond)| {
            let first_use = beyond
                .iter()
                .map(|&u| ctx.levels().asap(u))
                .min()
                .unwrap_or(0);
            (std::cmp::Reverse(first_use), *v)
        });
        // Spill-just-enough and spill-everything variants.
        if victims.len() > x {
            candidates.push(Candidate {
                boundary: s,
                sd1_heads: sd1_heads.clone(),
                sd1_tails: sd1_tails.clone(),
                victims: victims[..x].to_vec(),
            });
        }
        candidates.push(Candidate {
            boundary: s,
            sd1_heads,
            sd1_tails,
            victims,
        });
    }
    // Second candidate family: values whose live range crosses a
    // boundary *in an already-serialized DAG* (no delayable chains
    // remain — e.g. after heavy FU sequentialization). The store is
    // forced before the boundary and the reload after it, freeing the
    // register across the busy region.
    for &s in &boundaries {
        let mut victims: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for v in ctx.ddg().value_nodes() {
            if v == s || ctx.reach().reaches(s, v) {
                continue;
            }
            let beyond: Vec<NodeId> = ctx
                .ddg()
                .uses_of(v)
                .iter()
                .copied()
                .filter(|&u| u != s && ctx.reach().reaches(s, u))
                .collect();
            if beyond.is_empty() {
                continue;
            }
            let bridges = match kills.kill_of(v) {
                Some(k) => beyond.contains(&k) || k == exit,
                None => false,
            };
            if bridges {
                victims.push((v, beyond));
            }
        }
        if victims.is_empty() {
            continue;
        }
        victims.sort_by_key(|(v, beyond)| {
            let first_use = beyond
                .iter()
                .map(|&u| ctx.levels().asap(u))
                .min()
                .unwrap_or(0);
            (std::cmp::Reverse(first_use), *v)
        });
        // The store must be pinned *early* or the worst-case measurement
        // still sees the victim's register busy until just before the
        // boundary: anchor it ahead of every other excessive value's
        // definition (the family-1 "prior to SD1's roots" rule).
        let pinned_heads = |chosen: &[(NodeId, Vec<NodeId>)]| -> Vec<NodeId> {
            heads
                .iter()
                .copied()
                .filter(|h| !chosen.iter().any(|(v, _)| v == h))
                .collect()
        };
        if victims.len() > x {
            let chosen = victims[..x].to_vec();
            candidates.push(Candidate {
                boundary: s,
                sd1_heads: pinned_heads(&chosen),
                sd1_tails: Vec::new(),
                victims: chosen,
            });
        }
        candidates.push(Candidate {
            boundary: s,
            sd1_heads: pinned_heads(&victims),
            sd1_tails: Vec::new(),
            victims,
        });
    }
    if candidates.is_empty() {
        return Err(TransformError::NoCandidate(
            "no value bridges any stage boundary",
        ));
    }
    // Each scored candidate pays a context clone, a tentative apply (the
    // clone's closure and levels are extended in place) and a full
    // re-measurement of kills and the register requirement, which the
    // incremental engine cannot probe across node insertion. So cap the
    // fully-evaluated set. Generation order already ranks candidates:
    // family 1 (delayed sub-DAG) before family 2, boundaries in
    // chains-ended order, spill-just-enough before spill-everything —
    // truncation keeps the paper-preferred prefix deterministically.
    candidates.truncate(MAX_SCORED_CANDIDATES);

    // Tentatively apply each candidate and keep the best.
    let mut best: Option<(u32, u64, usize, usize)> = None; // (req, cp, spills, idx)
    for (idx, cand) in candidates.iter().enumerate() {
        // Checkpoint: each candidate pays a context clone plus a full
        // re-measurement. On exhaustion, settle for the best scored so
        // far (typed NoCandidate below if none was).
        if !meter.charge(n as u64) {
            break;
        }
        let mut trial = ctx.clone();
        apply_candidate(&mut trial, cand);
        let trial_kills = select_kills_metered(&trial, options.kill_mode, meter);
        let required =
            requirement_only_metered(&trial, &trial_kills, ResourceKind::Registers, meter);
        // Reducing below capacity buys nothing; don't pay critical path
        // or extra spills for it.
        let key = (
            required.max(capacity),
            trial.critical_path(),
            cand.victims.len(),
            idx,
        );
        if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
            best = Some(key);
        }
    }
    let Some((required_after, _, _, idx)) = best else {
        // Meter exhausted before any candidate could be scored.
        return Err(TransformError::NoCandidate(
            "budget exhausted before any spill candidate was scored",
        ));
    };
    if required_after >= required_before {
        return Err(TransformError::NoCandidate(
            "no spill candidate reduces the requirement",
        ));
    }

    Ok(apply_candidate(ctx, &candidates[idx]))
}

/// Applies a candidate, returning the report of what was done.
fn apply_candidate(ctx: &mut AllocCtx<'_>, cand: &Candidate) -> TransformReport {
    let mut report = TransformReport::default();
    for (v, beyond) in &cand.victims {
        let pair = ctx.insert_spill(*v, beyond);
        report.spills.push((*v, pair));
        // "Spilled prior to SD1's roots": the store completes before
        // stage 1 starts, freeing the register throughout it. In the
        // serialized family (no stage-1 chains) the store is anchored
        // before the boundary itself.
        for &h in cand.sd1_heads.iter().chain(std::iter::once(&cand.boundary)) {
            if !ctx.reach().reaches(pair.store, h) && !ctx.would_cycle(pair.store, h) {
                ctx.add_sequence_edge(pair.store, h);
                report.edges_added.push((pair.store, h));
            }
        }
        // "Reloads placed after SD1's leaves" — and after the boundary
        // kill point, so stage 1's values are dead first.
        for &t in cand.sd1_tails.iter().chain(std::iter::once(&cand.boundary)) {
            if !ctx.reach().reaches(t, pair.load) && !ctx.would_cycle(t, pair.load) {
                ctx.add_sequence_edge(t, pair.load);
                report.edges_added.push((t, pair.load));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::excess::find_excessive;
    use crate::measure::{measure, MeasureOptions};
    use crate::resource::ResourceKind;
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

    fn reg_requirement(ctx: &mut AllocCtx<'_>) -> u32 {
        let m = measure(ctx, MeasureOptions::default());
        m.of(ResourceKind::Registers).unwrap().requirement.required
    }

    /// Figure 3(c): the spilled value is D — the only producer outside
    /// the delayed sub-DAG {G, H} feeding it.
    #[test]
    fn figure3c_spills_node_d() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap().clone();
        let ex = find_excessive(&mut ctx, &regs, &m.kills).unwrap();
        let report = spill_registers(&mut ctx, &ex, &m.kills, MeasureOptions::default()).unwrap();
        let d = ctx.ddg().dag().node(5); // D = v3 = add v0, 5
        assert!(
            report.spills.iter().any(|&(v, _)| v == d),
            "paper spills D; spilled {:?}",
            report.spills
        );
    }

    /// Figure 3(c): spilling drives registers from 5 down to 3.
    #[test]
    fn figure3c_spill_reduces_requirement() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 3));
        assert_eq!(reg_requirement(&mut ctx), 5);
        for _ in 0..6 {
            let m = measure(&mut ctx, MeasureOptions::default());
            let regs = m.of(ResourceKind::Registers).unwrap().clone();
            let Some(ex) = find_excessive(&mut ctx, &regs, &m.kills) else {
                break;
            };
            if spill_registers(&mut ctx, &ex, &m.kills, MeasureOptions::default()).is_err() {
                break;
            }
        }
        let after = reg_requirement(&mut ctx);
        assert!(after <= 3, "requirement {after} fits 3 registers");
        assert!(ctx.ddg().dag().is_acyclic());
    }

    #[test]
    fn spill_inserts_store_and_reload() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 4));
        let n_before = ctx.ddg().dag().node_count();
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap().clone();
        let ex = find_excessive(&mut ctx, &regs, &m.kills).unwrap();
        let report = spill_registers(&mut ctx, &ex, &m.kills, MeasureOptions::default()).unwrap();
        assert!(!report.spills.is_empty());
        assert_eq!(
            ctx.ddg().dag().node_count(),
            n_before + 2 * report.spills.len()
        );
        for (victim, pair) in report.spills {
            assert!(ctx.reach().reaches(victim, pair.store));
            assert!(ctx.reach().reaches(pair.store, pair.load));
        }
    }

    #[test]
    fn spill_preserves_single_root_and_leaf() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap().clone();
        let ex = find_excessive(&mut ctx, &regs, &m.kills).unwrap();
        spill_registers(&mut ctx, &ex, &m.kills, MeasureOptions::default()).unwrap();
        assert_eq!(ctx.ddg().dag().roots(), vec![ctx.ddg().entry()]);
        assert_eq!(ctx.ddg().dag().leaves(), vec![ctx.ddg().exit()]);
    }

    #[test]
    fn spilled_use_reads_reload_register() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap().clone();
        let ex = find_excessive(&mut ctx, &regs, &m.kills).unwrap();
        let report = spill_registers(&mut ctx, &ex, &m.kills, MeasureOptions::default()).unwrap();
        for (_, pair) in &report.spills {
            let reload_reg = ctx.ddg().value_def(pair.load).unwrap();
            for &u in ctx.ddg().uses_of(pair.load) {
                if let Some(instr) = ctx.ddg().instr(u) {
                    assert!(instr.uses().contains(&reload_reg));
                }
            }
        }
    }
}
