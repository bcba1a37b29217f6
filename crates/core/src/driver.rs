//! The top-level URSA algorithm (paper Figure 1 and §5).
//!
//! ```text
//! Algorithm URSA(Trace):
//!   Construct the dependence DAG from Trace
//!   Measure the requirements for both functional units and registers
//!   While there are regions with excess requirements do
//!     Reduce requirements by applying transformations to the DAG
//!     Update the measurements
//!   Assign registers and functional units     (ursa-sched)
//!   Generate code                             (ursa-sched)
//! ```
//!
//! Two application disciplines are provided (§5): **integrated** — every
//! applicable transformation is tentatively applied, the transformed
//! DAG is re-measured, and the candidate that best reduces all excess
//! requirements while minimizing the critical path wins; and **phased**
//! — both register transformations run in a first phase and functional
//! unit sequentialization in a second, the ordering §5's interaction
//! analysis recommends.

use crate::budget::CompileBudget;
use crate::ctx::AllocCtx;
use crate::excess::find_excessive;
use crate::fault::{self, FaultKind, FaultSite};
use crate::incremental::IncrementalEngine;
use crate::kill::KillMode;
use crate::measure::{
    measure_adopted_metered, measure_metered, summary_fast_metered, MeasureOptions,
    MeasurementSummary,
};
use crate::resource::ResourceKind;
use crate::transform::{
    fu_seq::sequentialize_fus_metered, reg_seq::sequentialize_registers_metered,
    spill::spill_registers_metered,
};
use std::fmt;
use ursa_graph::meter::WorkMeter;
use ursa_graph::reach::Reachability;
use ursa_ir::ddg::DependenceDag;
use ursa_machine::Machine;

/// Largest register excess at which spill scoring is skipped whenever
/// register sequencing already reduced the excess this round (the
/// "lazy spill" fast path). Small excesses are the measurement-bound
/// regime where sequencing closes the gap by itself; past this bound
/// every spill candidate is scored so high-pressure allocations keep
/// the paper's full §5 comparison.
const LAZY_SPILL_MAX_EXCESS: u32 = 8;

/// How transformations are scheduled across resources (§5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Tentatively apply every candidate each round and keep the best.
    #[default]
    Integrated,
    /// Registers first (both register transformations), then functional
    /// units — the phase order recommended by §5.
    Phased,
    /// Functional units first, then registers — the ordering §5 argues
    /// *against*; provided for the ablation.
    PhasedFuFirst,
    /// Spilling only (§4.3). The least clever discipline, but the one
    /// that is *always applicable*: every excessive value can be pushed
    /// to memory, so it is the last allocation rung of the degradation
    /// ladder in `ursa-sched`.
    SpillOnly,
}

/// Configuration of the allocation phase.
#[derive(Clone, Copy, Debug)]
pub struct UrsaConfig {
    /// Transformation scheduling discipline.
    pub strategy: Strategy,
    /// Kill-function selection for register measurement.
    pub kill_mode: KillMode,
    /// Use a plain maximum matching instead of the hammock-prioritized
    /// one (ablation T7).
    pub plain_matching: bool,
    /// Safety valve on reduction rounds.
    pub max_iterations: usize,
    /// Score tentative spill-free candidates with the delta-propagating
    /// [`IncrementalEngine`] instead of cloning the context and
    /// re-measuring from scratch. Decision-neutral: every maximum
    /// matching of a relation has the same cardinality, so the loop
    /// adopts identical steps either way (the integration tests assert
    /// byte-identical outcomes on all paper kernels).
    pub incremental: bool,
    /// `ParanoidMeasure`: differentially check every incremental probe
    /// against a from-scratch measurement, and the context's in-place
    /// reachability and levels against a rebuild after every adopted
    /// step; panic on any disagreement. Costs the full scratch
    /// measurement per probe, so it is for CI stress slices and
    /// debugging, not production runs.
    pub paranoid_measure: bool,
}

impl Default for UrsaConfig {
    fn default() -> Self {
        UrsaConfig {
            strategy: Strategy::Integrated,
            kill_mode: KillMode::MinCover,
            plain_matching: false,
            max_iterations: 256,
            incremental: true,
            paranoid_measure: false,
        }
    }
}

impl UrsaConfig {
    fn measure_options(&self) -> MeasureOptions {
        MeasureOptions {
            kill_mode: self.kill_mode,
            plain_matching: self.plain_matching,
        }
    }
}

/// Which transformation a step applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// §4.1 functional-unit sequentialization.
    FuSequentialization,
    /// §4.2 register sequentialization.
    RegisterSequentialization,
    /// §4.3 spilling.
    Spill,
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StepKind::FuSequentialization => "fu-seq",
            StepKind::RegisterSequentialization => "reg-seq",
            StepKind::Spill => "spill",
        };
        f.write_str(s)
    }
}

/// One applied reduction step.
#[derive(Clone, Debug)]
pub struct Step {
    /// The transformation applied.
    pub kind: StepKind,
    /// The resource whose excessive set drove the step.
    pub resource: ResourceKind,
    /// Sequence edges the step added.
    pub edges_added: usize,
    /// Values the step spilled.
    pub spills: usize,
    /// Total excess across resources before/after the step.
    pub excess_before: u32,
    /// Total excess after the step.
    pub excess_after: u32,
    /// Critical path after the step (cycles).
    pub critical_path_after: u64,
}

/// The result of the allocation phase.
#[derive(Clone, Debug)]
pub struct AllocationOutcome {
    /// The transformed DAG, ready for assignment.
    pub ddg: DependenceDag,
    /// Requirements measured before any transformation.
    pub initial_measurement: MeasurementSummary,
    /// Requirements after the final transformation.
    pub final_measurement: MeasurementSummary,
    /// The steps applied, in order.
    pub steps: Vec<Step>,
    /// Excess the heuristics could not remove (the assignment phase is
    /// responsible for it, paper §2). Zero on success.
    pub residual_excess: u32,
    /// Critical path of the transformed DAG (cycles).
    pub critical_path: u64,
    /// `true` if `max_iterations` stopped the loop early.
    pub hit_iteration_limit: bool,
    /// `true` if the [`CompileBudget`] exhausted during the run: the
    /// outcome is the best-so-far state (anytime semantics), possibly
    /// with residual excess the assignment phase must absorb.
    pub budget_exhausted: bool,
}

impl AllocationOutcome {
    /// Total values spilled.
    pub fn spill_count(&self) -> usize {
        self.steps.iter().map(|s| s.spills).sum()
    }

    /// Total sequence edges added.
    pub fn sequence_edge_count(&self) -> usize {
        self.steps.iter().map(|s| s.edges_added).sum()
    }
}

/// Runs URSA's allocation phase: transforms `ddg` until no legal
/// schedule can exceed `machine`'s resources (or until no heuristic
/// applies; see [`AllocationOutcome::residual_excess`]).
pub fn allocate(ddg: DependenceDag, machine: &Machine, config: &UrsaConfig) -> AllocationOutcome {
    allocate_budgeted(ddg, machine, config, &CompileBudget::unlimited())
}

/// [`allocate`] under a [`CompileBudget`]: the reduce loop, measurement
/// matchings, and transform searches all checkpoint cooperatively
/// against `budget`. When it exhausts, the loop stops at the next
/// checkpoint and returns the best-so-far transformed DAG with
/// [`AllocationOutcome::budget_exhausted`] set — anytime semantics;
/// allocation never hangs and never returns an inconsistent DAG.
pub fn allocate_budgeted(
    ddg: DependenceDag,
    machine: &Machine,
    config: &UrsaConfig,
    budget: &CompileBudget,
) -> AllocationOutcome {
    if let Some(plan) = fault::trip(FaultSite::Driver) {
        match plan.kind {
            FaultKind::Panic => fault::trip_panic(FaultSite::Driver),
            _ => budget.starve(),
        }
    }
    let meter: &dyn WorkMeter = budget;
    let mut ctx = AllocCtx::new(ddg, machine);
    let opts = config.measure_options();
    let mut meas = measure_metered(&mut ctx, opts, meter);
    let initial_measurement = meas.summary();
    let mut steps = Vec::new();
    let mut hit_iteration_limit = false;
    // The incremental engine is primed against the current base context
    // and answers probes by delta propagation; it must be rebuilt
    // whenever the base changes, i.e. after every adopted step.
    // `charge(0)` consumes nothing: it only skips the (expensive,
    // unmetered) engine priming when the budget is already gone — the
    // loop below will stop at its first checkpoint anyway.
    let mut engine = (config.incremental && !meas.fits() && meter.charge(0)).then(|| {
        IncrementalEngine::new(&ctx, &meas.kills, config.kill_mode, config.paranoid_measure)
    });

    // Phase structure (§5). In *integrated* mode the allowed set is
    // chosen dynamically each round: while any register excess exists,
    // only the register transformations compete (FU sequentialization
    // can *increase* register requirements by forcing long lifetimes,
    // so it waits); once registers fit, FU sequentialization runs — and
    // if its spill-free edges or a later spill's memory ops re-create
    // register excess, the register transformations return. The static
    // phased modes never revisit an earlier phase (their weakness is
    // ablation T5).
    const REG_KINDS: &[StepKind] = &[StepKind::RegisterSequentialization, StepKind::Spill];
    const FU_KINDS: &[StepKind] = &[StepKind::FuSequentialization];
    let phases: &[&[StepKind]] = match config.strategy {
        Strategy::Integrated => &[&[]], // dynamic; see below
        Strategy::Phased => &[REG_KINDS, FU_KINDS],
        Strategy::PhasedFuFirst => &[FU_KINDS, REG_KINDS],
        Strategy::SpillOnly => &[&[StepKind::Spill], FU_KINDS],
    };

    let mut iterations = 0usize;
    'phases: for phase_allowed in phases {
        loop {
            if meas.fits() {
                break 'phases;
            }
            if iterations >= config.max_iterations {
                hit_iteration_limit = true;
                break 'phases;
            }
            // Round-head checkpoint: charge one node-count unit (every
            // round is at least one full scan) and sample the deadline.
            // Exhaustion stops the loop with the best-so-far DAG.
            if !meter.charge(ctx.ddg().dag().node_count() as u64) {
                break 'phases;
            }
            // Peak-memory estimate: each tentative candidate clones the
            // context, whose footprint is dominated by the n×n
            // reachability closure (two bit matrices) plus per-node
            // tables.
            {
                let n = ctx.ddg().dag().node_count() as u64;
                budget.note_mem(n * n / 4 + 128 * n);
            }
            iterations += 1;
            let excess_before = meas.total_excess();
            let reg_excess = meas
                .of(ResourceKind::Registers)
                .is_some_and(|rm| !rm.requirement.fits());

            // A winning candidate: its score, the transformed trial
            // context, the step record, and the sequence edges it added.
            type Found<'m> = (
                CandidateScore,
                AllocCtx<'m>,
                Step,
                Vec<(ursa_graph::dag::NodeId, ursa_graph::dag::NodeId)>,
            );

            // Generates the best candidate among the allowed kinds.
            // `ctx` is only borrowed mutably so incremental probes can
            // apply-and-revert tentative edges in place; on return it is
            // structurally untouched.
            #[allow(clippy::too_many_arguments)]
            fn try_kinds<'m>(
                allowed: &[StepKind],
                ctx: &mut AllocCtx<'m>,
                mut engine: Option<&mut IncrementalEngine>,
                meas: &crate::measure::Measurement,
                opts: MeasureOptions,
                kill_mode: KillMode,
                excess_before: u32,
                meter: &dyn WorkMeter,
            ) -> Option<Found<'m>> {
                let mut best: Option<Found<'m>> = None;
                for rm in &meas.resources {
                    if rm.requirement.fits() {
                        continue;
                    }
                    let kinds: &[StepKind] = match rm.requirement.resource {
                        ResourceKind::Fu(_) => &[StepKind::FuSequentialization],
                        ResourceKind::Registers => {
                            &[StepKind::RegisterSequentialization, StepKind::Spill]
                        }
                    };
                    // §5 prefers sequencing over spilling at equal
                    // excess; when register sequencing already reduces
                    // a *small* excess this round, sequencing alone can
                    // close the remaining gap, spill candidates cannot
                    // win that preference, and their (expensive, node-
                    // inserting, scratch-scored) evaluation is skipped.
                    // Under heavy pressure spilling's larger per-step
                    // excess reduction must stay in the running — on
                    // high-pressure kernels an all-sequencing path can
                    // walk into Kill() under-measurement territory
                    // (tests/pipeline_guarantees.rs guards this).
                    let lazy_spill = rm.requirement.excess() <= LAZY_SPILL_MAX_EXCESS;
                    let mut reg_seq_reduced = false;
                    for &kind in kinds {
                        if !allowed.contains(&kind) {
                            continue;
                        }
                        if kind == StepKind::Spill && reg_seq_reduced && lazy_spill {
                            continue;
                        }
                        let mut trial = ctx.clone();
                        let Some(ex) = find_excessive(&mut trial, rm, &meas.kills) else {
                            continue;
                        };
                        let result = match kind {
                            StepKind::FuSequentialization => {
                                sequentialize_fus_metered(&mut trial, &ex, &meas.kills, meter)
                            }
                            StepKind::RegisterSequentialization => sequentialize_registers_metered(
                                &mut trial,
                                &ex,
                                &meas.kills,
                                opts,
                                engine.as_deref_mut(),
                                meter,
                            ),
                            StepKind::Spill => {
                                spill_registers_metered(&mut trial, &ex, &meas.kills, opts, meter)
                            }
                        };
                        let Ok(report) = result else { continue };
                        // Score the candidate. Spill-free transforms only
                        // added `report.edges_added` to the base context,
                        // so the incremental engine can probe those edges
                        // directly. A spill grows the node set: the trial
                        // context kept its closure and levels current in
                        // place, but its requirements are re-measured from
                        // scratch, since the engine's matchers cannot absorb
                        // node insertion. Either way the full staged
                        // measurement runs once on the adopted candidate.
                        let (trial_summary, trial_cp) = match engine.as_deref_mut() {
                            Some(e) if report.spills.is_empty() => {
                                let probe = e.probe_metered(ctx, &report.edges_added, meter);
                                (probe.summary, probe.critical_path)
                            }
                            _ => (
                                summary_fast_metered(&trial, kill_mode, meter),
                                trial.critical_path(),
                            ),
                        };
                        let score = CandidateScore {
                            excess_after: trial_summary.total_excess(),
                            critical_path: trial_cp,
                            spills: report.spills.len(),
                            rank: kind_rank(kind),
                        };
                        let step = Step {
                            kind,
                            resource: rm.requirement.resource,
                            edges_added: report.edges_added.len(),
                            spills: report.spills.len(),
                            excess_before,
                            excess_after: trial_summary.total_excess(),
                            critical_path_after: trial_cp,
                        };
                        if kind == StepKind::RegisterSequentialization
                            && score.excess_after < excess_before
                        {
                            reg_seq_reduced = true;
                        }
                        if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                            best = Some((score, trial, step, report.edges_added));
                        }
                    }
                }
                best
            }

            let best = if config.strategy == Strategy::Integrated {
                // Register transformations have priority while register
                // excess exists (§5); when they are exhausted, FU
                // sequentialization proceeds anyway — narrowing the DAG
                // shrinks register width as a side effect, after which
                // the register transformations get another chance.
                let preferred = if reg_excess { REG_KINDS } else { FU_KINDS };
                let fallback = if reg_excess { FU_KINDS } else { REG_KINDS };
                let mut found = try_kinds(
                    preferred,
                    &mut ctx,
                    engine.as_mut(),
                    &meas,
                    opts,
                    config.kill_mode,
                    excess_before,
                    meter,
                );
                if found.is_none() {
                    found = try_kinds(
                        fallback,
                        &mut ctx,
                        engine.as_mut(),
                        &meas,
                        opts,
                        config.kill_mode,
                        excess_before,
                        meter,
                    );
                }
                found
            } else {
                try_kinds(
                    phase_allowed,
                    &mut ctx,
                    engine.as_mut(),
                    &meas,
                    opts,
                    config.kill_mode,
                    excess_before,
                    meter,
                )
            };

            match best {
                Some((_, chosen_ctx, step, edges)) => {
                    // Every applied candidate strictly grows the partial
                    // order (sequence edges) or the node set (spills), so
                    // the loop terminates even when a single step does
                    // not lower total excess; `max_iterations` backstops.
                    let spill_step = step.spills > 0;
                    steps.push(step);
                    // Spill-free steps only added `edges` to the base:
                    // commit them through the engine (one delta pass)
                    // instead of adopting the scratch-built trial and
                    // re-priming from zero. Spills grow the node set, so
                    // they keep the scratch rebuild.
                    let committed = match engine.as_mut() {
                        Some(e) if !spill_step => {
                            e.commit(&mut ctx, &edges);
                            true
                        }
                        _ => {
                            ctx = chosen_ctx;
                            false
                        }
                    };
                    // The adopted context's closure and levels were
                    // maintained in place through every edge and spill
                    // insertion; they must equal a rebuild.
                    if config.paranoid_measure {
                        assert!(
                            *ctx.reach() == Reachability::of(ctx.ddg().dag()),
                            "ParanoidMeasure: maintained reachability disagrees with a \
                             from-scratch closure after an adopted step"
                        );
                        assert_eq!(
                            *ctx.levels(),
                            ctx.scratch_levels(),
                            "ParanoidMeasure: maintained levels disagree with a from-scratch \
                             recompute after an adopted step (maintained left, scratch right)"
                        );
                    }
                    // A committed (spill-free) step already re-measured the
                    // base through the engine's delta matchers and kill
                    // selector; adopt that summary instead of rebuilding
                    // every resource from scratch. Fitting resources get a
                    // placeholder decomposition nobody reads; only the
                    // still-excessive ones are measured for real.
                    meas = match engine.as_ref() {
                        Some(e) if committed => {
                            let adopted = measure_adopted_metered(
                                &mut ctx,
                                e.base_kills().clone(),
                                &e.base_summary(),
                                opts,
                                meter,
                            );
                            if config.paranoid_measure {
                                let scratch = measure_metered(&mut ctx, opts, meter);
                                assert_eq!(
                                    adopted.summary(),
                                    scratch.summary(),
                                    "adopted fast measure disagrees with scratch measurement"
                                );
                                assert_eq!(
                                    adopted.kills, scratch.kills,
                                    "adopted kill map disagrees with scratch kill selection"
                                );
                            }
                            adopted
                        }
                        _ => measure_metered(&mut ctx, opts, meter),
                    };
                    if engine.is_some() {
                        if meas.fits() {
                            engine = None;
                        } else if !committed {
                            engine = Some(IncrementalEngine::new(
                                &ctx,
                                &meas.kills,
                                config.kill_mode,
                                config.paranoid_measure,
                            ));
                        }
                    }
                }
                None => break, // nothing applies in this phase
            }
        }
    }

    let final_measurement = meas.summary();
    let residual_excess = final_measurement.total_excess();
    AllocationOutcome {
        critical_path: ctx.critical_path(),
        ddg: ctx.into_ddg(),
        initial_measurement,
        final_measurement,
        steps,
        residual_excess,
        hit_iteration_limit,
        budget_exhausted: budget.is_exhausted(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CandidateScore {
    excess_after: u32,
    critical_path: u64,
    spills: usize,
    rank: u8,
}

fn kind_rank(kind: StepKind) -> u8 {
    // §5 tie-breaking: register sequencing beats spilling ("it does not
    // require the use of additional resources to access main memory");
    // FU sequencing sits between.
    match kind {
        StepKind::RegisterSequentialization => 0,
        StepKind::FuSequentialization => 1,
        StepKind::Spill => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_ir::parser::parse;
    use ursa_machine::FuClass;

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

    fn fig2_ddg() -> DependenceDag {
        DependenceDag::from_entry_block(&parse(FIG2).unwrap())
    }

    fn required(summary: &MeasurementSummary, kind: ResourceKind) -> u32 {
        summary.of(kind).unwrap().required
    }

    /// Figure 3(d): the combination of transformations reaches 2 FUs and
    /// 3 registers.
    #[test]
    fn figure3d_two_fus_three_registers() {
        let machine = Machine::homogeneous(2, 3);
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        assert_eq!(out.residual_excess, 0, "steps: {:?}", out.steps);
        assert!(out.final_measurement.fits(&machine));
        assert_eq!(
            required(
                &out.initial_measurement,
                ResourceKind::Fu(FuClass::Universal)
            ),
            4
        );
        assert_eq!(
            required(&out.initial_measurement, ResourceKind::Registers),
            5
        );
        assert!(required(&out.final_measurement, ResourceKind::Fu(FuClass::Universal)) <= 2);
        assert!(required(&out.final_measurement, ResourceKind::Registers) <= 3);
        assert!(!out.hit_iteration_limit);
    }

    #[test]
    fn roomy_machine_needs_no_steps() {
        let machine = Machine::homogeneous(8, 16);
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        assert!(out.steps.is_empty());
        assert_eq!(out.residual_excess, 0);
        assert_eq!(out.initial_measurement, out.final_measurement);
    }

    #[test]
    fn phased_matches_integrated_on_fit() {
        let machine = Machine::homogeneous(3, 4);
        for strategy in [
            Strategy::Integrated,
            Strategy::Phased,
            Strategy::PhasedFuFirst,
        ] {
            let out = allocate(
                fig2_ddg(),
                &machine,
                &UrsaConfig {
                    strategy,
                    ..UrsaConfig::default()
                },
            );
            assert_eq!(out.residual_excess, 0, "{strategy:?}: {:?}", out.steps);
            assert!(out.final_measurement.fits(&machine), "{strategy:?}");
        }
    }

    #[test]
    fn one_fu_machine_fully_sequentializes() {
        let machine = Machine::homogeneous(1, 3);
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        assert_eq!(out.residual_excess, 0, "steps: {:?}", out.steps);
        assert_eq!(
            required(&out.final_measurement, ResourceKind::Fu(FuClass::Universal)),
            1
        );
    }

    #[test]
    fn outcome_counters_match_steps() {
        let machine = Machine::homogeneous(2, 3);
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        let edges: usize = out.steps.iter().map(|s| s.edges_added).sum();
        let spills: usize = out.steps.iter().map(|s| s.spills).sum();
        assert_eq!(out.sequence_edge_count(), edges);
        assert_eq!(out.spill_count(), spills);
    }

    #[test]
    fn transformed_dag_stays_acyclic_and_anchored() {
        let machine = Machine::homogeneous(2, 3);
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        assert!(out.ddg.dag().is_acyclic());
        assert_eq!(out.ddg.dag().roots(), vec![out.ddg.entry()]);
        assert_eq!(out.ddg.dag().leaves(), vec![out.ddg.exit()]);
    }

    #[test]
    fn classed_machine_allocation() {
        let machine = Machine::classic_vliw();
        let out = allocate(fig2_ddg(), &machine, &UrsaConfig::default());
        assert_eq!(out.residual_excess, 0, "steps: {:?}", out.steps);
        assert!(out.final_measurement.fits(&machine));
    }

    #[test]
    fn naive_kill_mode_runs() {
        let machine = Machine::homogeneous(2, 3);
        let out = allocate(
            fig2_ddg(),
            &machine,
            &UrsaConfig {
                kill_mode: KillMode::Naive,
                ..UrsaConfig::default()
            },
        );
        assert!(out.final_measurement.fits(&machine));
    }
}
