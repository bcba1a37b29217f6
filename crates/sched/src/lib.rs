//! Resource assignment, VLIW code generation, and the baseline phase
//! orderings URSA is compared against.
//!
//! The paper's pipeline is *allocation* (`ursa-core`) → *assignment* →
//! *code generation* (§2). This crate provides the last two stages plus
//! the three competing phase orderings from §1:
//!
//! * [`schedule`] — resource-constrained list scheduling.
//! * [`assign`] — linear-scan register binding over a fixed schedule.
//! * [`vliw`] — wide instruction words over physical registers.
//! * [`patch`] — postpass spill patching ("spill code … incorporated
//!   into the existing schedule").
//! * [`prepass`] — register allocation before scheduling (anti
//!   dependences restrict the scheduler).
//! * [`ips`] — Goodman–Hsu-style integrated prepass scheduling, the
//!   DAG-driven related work without a spill mechanism.
//! * [`error`] / [`validate`] — the typed failure taxonomy and the stage
//!   invariant checks of the fail-safe pipeline.
//!
//! [`try_compile`] runs any strategy end-to-end on a trace, degrading
//! down a fallback ladder instead of failing when URSA's heuristics run
//! out of budget; [`compile`] is the panicking wrapper.
//!
//! # Examples
//!
//! ```
//! use ursa_sched::{compile_entry_block, try_compile, CompileStrategy};
//! use ursa_ir::parser::parse;
//! use ursa_ir::Trace;
//! use ursa_machine::Machine;
//!
//! let program = parse(
//!     "v0 = load a[0]\n\
//!      v1 = mul v0, 2\n\
//!      v2 = mul v0, 3\n\
//!      v3 = add v1, v2\n\
//!      store a[1], v3\n",
//! ).unwrap();
//! let machine = Machine::homogeneous(2, 3);
//! let ursa = compile_entry_block(&program, &machine, CompileStrategy::Ursa(Default::default()));
//! let post = compile_entry_block(&program, &machine, CompileStrategy::Postpass);
//! assert!(ursa.vliw.op_count() >= 5);
//! assert!(post.vliw.op_count() >= 5);
//! // The fallible pipeline returns typed errors instead of panicking:
//! let err = try_compile(&program, &Trace::single(7), &machine, CompileStrategy::Postpass);
//! assert!(err.is_err());
//! ```

pub mod assign;
pub mod error;
pub mod ips;
pub mod patch;
pub mod prepass;
pub mod program;
pub mod schedule;
pub mod validate;
pub mod vliw;

pub use assign::{assign_registers, emit_physical, schedule_pressure, AssignError};
pub use error::CompileError;
pub use ips::{ips_schedule, try_ips_schedule, IpsStats};
pub use patch::{patch_spills, try_patch_spills, PatchStats};
pub use prepass::{prepass_allocate, try_prepass_allocate, PrepassStats};
pub use program::{
    compensate, compile_program, try_compile_program, units_for_strategy, CompiledUnit,
    ProgramSchedule, UnitSummary, BOUNDARY_SYMBOL,
};
pub use schedule::{list_schedule, try_list_schedule, Schedule, ScheduledOp};
pub use validate::{is_spill_symbol, Stage, ValidationError, SPILL_PREFIX};
pub use vliw::{MachineOp, SlotOp, VliwProgram};

use std::time::Duration;
use ursa_core::fault::{self, FaultKind, FaultSite};
use ursa_core::{allocate_budgeted, AllocationOutcome, BudgetCause, CompileBudget};
use ursa_core::{Strategy, UrsaConfig};
use ursa_ir::ddg::{DdgOptions, DependenceDag};
use ursa_ir::program::Program;
use ursa_ir::trace::Trace;
use ursa_machine::Machine;

/// A compilation strategy — the phase orderings compared in the
/// evaluation.
#[derive(Clone, Debug)]
pub enum CompileStrategy {
    /// URSA: unified allocation, then assignment (the paper's
    /// contribution).
    Ursa(UrsaConfig),
    /// Schedule for parallelism first, patch spills into the schedule
    /// afterwards.
    Postpass,
    /// Allocate registers on the sequential code first, schedule the
    /// anti-dependence-laden result afterwards.
    Prepass,
    /// Goodman–Hsu integrated prepass scheduling (no spill mechanism).
    GoodmanHsu,
}

impl CompileStrategy {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            CompileStrategy::Ursa(_) => "ursa",
            CompileStrategy::Postpass => "postpass",
            CompileStrategy::Prepass => "prepass",
            CompileStrategy::GoodmanHsu => "goodman-hsu",
        }
    }
}

/// How diagnostics from the static lint layer (`ursa-lint`) are
/// treated for a compilation.
///
/// The scheduler only *records* the level — interpreting it would
/// require depending on the linter, which itself depends on this
/// crate. `ursa-lint`'s pipeline wrapper reads the field and runs the
/// translation validator and lint passes accordingly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum LintLevel {
    /// Skip linting entirely.
    #[default]
    Allow,
    /// Report all diagnostics; only validator errors fail the
    /// compilation.
    Warn,
    /// Report all diagnostics; lint warnings fail the compilation too.
    Deny,
}

impl LintLevel {
    /// Parses a level name as accepted by `--lint[=allow|warn|deny]`.
    pub fn parse(name: &str) -> Option<LintLevel> {
        match name {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }
}

impl std::fmt::Display for LintLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// Pipeline-level options of [`try_compile_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptions {
    /// Run the stage invariant checks ([`validate`]) even in release
    /// builds. Debug builds always run them.
    pub validate: bool,
    /// Disable the degradation ladder: an URSA allocation that exhausts
    /// its budget or leaves residual excess becomes
    /// [`CompileError::BudgetExhausted`] (or
    /// [`CompileError::DeadlineExceeded`] for a [`CompileBudget`])
    /// instead of retrying down the fallback rungs.
    pub no_fallback: bool,
    /// How `ursa-lint` treats diagnostics for this compilation (pure
    /// data here; see [`LintLevel`]).
    pub lint: LintLevel,
    /// Run the schedule-quality analysis against the lower-bound
    /// certificates (`ursa-lint` `U03xx` family), with this many cycles
    /// of slack above the schedule-length bound before `U0301` fires.
    /// `None` disables the analysis (pure data here, like `lint`).
    pub bounds: Option<u64>,
    /// Wall-clock budget for the whole compilation (one
    /// [`CompileBudget`] shared by every ladder rung). `None` means no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Cooperative work-step cap for the whole compilation. `None`
    /// means no cap.
    pub max_steps: Option<u64>,
    /// Catch panics at the trace boundary and convert them into
    /// [`CompileError::Internal`] with stage attribution, instead of
    /// unwinding through the caller.
    pub isolate: bool,
    /// Dependence-construction options for every DAG the pipeline
    /// builds. The whole-program driver sets
    /// [`DdgOptions::materialize_final_branch`] so unit code carries its
    /// final conditional branch.
    pub ddg: DdgOptions,
}

/// One rung of the degradation ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FallbackRung {
    /// An URSA allocation rung with the given discipline.
    Allocation(Strategy),
    /// The terminal rung: postpass spill patching of the last
    /// transformed DAG (always applicable, paper §4.3).
    PostpassPatch,
}

impl std::fmt::Display for FallbackRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FallbackRung::Allocation(Strategy::Integrated) => "integrated",
            FallbackRung::Allocation(Strategy::Phased) => "phased",
            FallbackRung::Allocation(Strategy::PhasedFuFirst) => "phased-fu-first",
            FallbackRung::Allocation(Strategy::SpillOnly) => "spill-only",
            FallbackRung::PostpassPatch => "postpass-patch",
        };
        f.write_str(s)
    }
}

/// Why a rung was abandoned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RungFailure {
    /// The allocation loop hit its iteration budget.
    IterationLimit {
        /// The budget that was exhausted.
        iterations: usize,
    },
    /// The transformations converged but left excess requirements.
    ResidualExcess {
        /// The remaining total excess.
        excess: u32,
    },
    /// Allocation claimed success but register assignment still
    /// overflowed (the `Kill()` heuristic under-measured, paper §2).
    AssignOverflow {
        /// The overflowing cycle.
        cycle: u64,
    },
    /// The shared [`CompileBudget`] exhausted during this rung; the
    /// ladder demotes straight to the terminal rung carrying the
    /// best-so-far DAG (retrying cheaper allocation rungs cannot
    /// un-exhaust a sticky budget).
    Budget {
        /// Which budget dimension ran out.
        cause: BudgetCause,
    },
}

impl std::fmt::Display for RungFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RungFailure::IterationLimit { iterations } => {
                write!(f, "iteration limit ({iterations}) hit")
            }
            RungFailure::ResidualExcess { excess } => {
                write!(f, "residual excess {excess}")
            }
            RungFailure::AssignOverflow { cycle } => {
                write!(f, "assignment overflowed at cycle {cycle}")
            }
            RungFailure::Budget { cause } => {
                write!(f, "compile budget exhausted ({cause})")
            }
        }
    }
}

/// Which rung of the degradation ladder produced the code, and which
/// rungs were tried and abandoned on the way down.
#[derive(Clone, Debug)]
pub struct FallbackReport {
    /// Abandoned rungs, in the order they were tried.
    pub attempts: Vec<(FallbackRung, RungFailure)>,
    /// The rung that produced the final code.
    pub rung: FallbackRung,
}

impl FallbackReport {
    /// `true` when the configured strategy did not produce the code
    /// itself.
    pub fn degraded(&self) -> bool {
        !self.attempts.is_empty()
    }
}

impl std::fmt::Display for FallbackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (rung, why) in &self.attempts {
            write!(f, "{rung} failed ({why}); ")?;
        }
        write!(f, "code from {} rung", self.rung)
    }
}

/// Metrics of one compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileStats {
    /// Final schedule length in cycles (including latency drain).
    pub schedule_length: u64,
    /// Spill stores inserted by any stage.
    pub spill_stores: usize,
    /// Spill reloads inserted by any stage.
    pub spill_loads: usize,
    /// Loads + stores in the final code (including program memory ops).
    pub memory_traffic: usize,
    /// Total operations emitted.
    pub ops: usize,
    /// Registers the generated code actually needs beyond the machine's
    /// file (nonzero only for Goodman–Hsu, which cannot spill).
    pub reg_overflow: u32,
    /// URSA sequence edges added (0 for baselines).
    pub sequence_edges: usize,
    /// Critical path of the (possibly transformed) DAG.
    pub critical_path: u64,
}

/// The result of compiling one trace.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The generated wide-word code.
    pub vliw: VliwProgram,
    /// Metrics for the evaluation tables.
    pub stats: CompileStats,
    /// URSA's allocation report, when the strategy was URSA.
    pub outcome: Option<AllocationOutcome>,
    /// Degradation-ladder report, when the strategy was URSA.
    pub fallback: Option<FallbackReport>,
}

/// Compiles `trace` of `program` for `machine` under `strategy`,
/// panicking on any [`try_compile`] error.
pub fn compile(
    program: &Program,
    trace: &Trace,
    machine: &Machine,
    strategy: CompileStrategy,
) -> Compiled {
    try_compile(program, trace, machine, strategy).unwrap_or_else(|e| panic!("compile: {e}"))
}

/// Compiles `trace` of `program` for `machine` under `strategy` with
/// default [`PipelineOptions`] (degradation ladder on, release-build
/// invariant checks off).
///
/// # Errors
///
/// See [`CompileError`]. With the ladder enabled (the default), URSA
/// strategies fail only when even postpass spill patching cannot fit
/// the machine (e.g. too few registers for a single instruction).
pub fn try_compile(
    program: &Program,
    trace: &Trace,
    machine: &Machine,
    strategy: CompileStrategy,
) -> Result<Compiled, CompileError> {
    try_compile_with(
        program,
        trace,
        machine,
        strategy,
        &PipelineOptions::default(),
    )
}

/// [`try_compile`] with explicit [`PipelineOptions`].
///
/// With [`PipelineOptions::isolate`] set, any panic below this frame is
/// caught at the trace boundary and converted into
/// [`CompileError::Internal`] attributed to the stage marker current
/// when the panic unwound.
pub fn try_compile_with(
    program: &Program,
    trace: &Trace,
    machine: &Machine,
    strategy: CompileStrategy,
    opts: &PipelineOptions,
) -> Result<Compiled, CompileError> {
    fault::set_stage("setup");
    if opts.isolate {
        // UnwindSafe audit: the closure borrows `program`, `trace`, and
        // `machine` immutably and owns every value it mutates; a panic
        // drops all partial products with the unwound stack, so no
        // caller-visible state can be observed torn. The only shared
        // state is the fault/stage thread-local, which is exactly what
        // the recovery path reads.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_compile_inner(program, trace, machine, strategy, opts)
        })) {
            Ok(result) => result,
            Err(_) => Err(CompileError::Internal {
                stage: fault::current_stage(),
            }),
        }
    } else {
        try_compile_inner(program, trace, machine, strategy, opts)
    }
}

fn try_compile_inner(
    program: &Program,
    trace: &Trace,
    machine: &Machine,
    strategy: CompileStrategy,
    opts: &PipelineOptions,
) -> Result<Compiled, CompileError> {
    if trace.blocks.is_empty() {
        return Err(CompileError::UnsupportedTrace {
            strategy: strategy.name(),
            blocks: 0,
        });
    }
    for &b in &trace.blocks {
        if b >= program.blocks.len() {
            return Err(CompileError::TraceOutOfRange {
                block: b,
                blocks: program.blocks.len(),
            });
        }
    }
    let checking = opts.validate || cfg!(debug_assertions);
    match strategy {
        CompileStrategy::Ursa(config) => compile_ursa(program, trace, machine, config, opts),
        CompileStrategy::Postpass => {
            let ddg = DependenceDag::build_with(program, trace, opts.ddg);
            let real_ops = validate::real_op_count(&ddg);
            if checking {
                validate::check_dag(Stage::Ddg, &ddg)?;
            }
            fault::set_stage("schedule");
            let schedule = try_list_schedule(&ddg, machine)?;
            if checking {
                validate::check_schedule(&ddg, &schedule, machine)?;
            }
            fault::set_stage("patch");
            let (vliw, patch_stats) = try_patch_spills(&ddg, &schedule, machine)?;
            if checking {
                validate::check_words(&vliw, machine, real_ops)?;
            }
            let stats = CompileStats {
                schedule_length: vliw.cycle_count() as u64,
                spill_stores: patch_stats.stores,
                spill_loads: patch_stats.loads,
                memory_traffic: vliw.memory_traffic(),
                ops: vliw.op_count(),
                reg_overflow: 0,
                sequence_edges: 0,
                critical_path: schedule.length(),
            };
            Ok(Compiled {
                vliw,
                stats,
                outcome: None,
                fallback: None,
            })
        }
        CompileStrategy::Prepass => {
            if trace.blocks.len() != 1 {
                return Err(CompileError::UnsupportedTrace {
                    strategy: "prepass",
                    blocks: trace.blocks.len(),
                });
            }
            fault::set_stage("allocation");
            let (allocated, pre_stats) = try_prepass_allocate(program, trace.blocks[0], machine)?;
            let ddg = DependenceDag::build_with(
                &allocated,
                trace,
                DdgOptions {
                    rename: false,
                    ..opts.ddg
                },
            );
            if checking {
                validate::check_dag(Stage::Ddg, &ddg)?;
            }
            fault::set_stage("schedule");
            let schedule = try_list_schedule(&ddg, machine)?;
            if checking {
                validate::check_schedule(&ddg, &schedule, machine)?;
            }
            fault::set_stage("assign");
            let vliw = emit_physical(&ddg, &schedule, machine);
            if checking {
                let expected =
                    validate::real_op_count(&DependenceDag::build_with(program, trace, opts.ddg));
                validate::check_words(&vliw, machine, expected)?;
            }
            let stats = CompileStats {
                schedule_length: vliw.cycle_count() as u64,
                spill_stores: pre_stats.stores,
                spill_loads: pre_stats.loads,
                memory_traffic: vliw.memory_traffic(),
                ops: vliw.op_count(),
                reg_overflow: 0,
                sequence_edges: 0,
                critical_path: schedule.length(),
            };
            Ok(Compiled {
                vliw,
                stats,
                outcome: None,
                fallback: None,
            })
        }
        CompileStrategy::GoodmanHsu => {
            let ddg = DependenceDag::build_with(program, trace, opts.ddg);
            let real_ops = validate::real_op_count(&ddg);
            if checking {
                validate::check_dag(Stage::Ddg, &ddg)?;
            }
            fault::set_stage("schedule");
            let (schedule, ips_stats) = try_ips_schedule(&ddg, machine)?;
            if checking {
                validate::check_schedule(&ddg, &schedule, machine)?;
            }
            // The technique has no spills; when it overflowed, the code
            // needs a wider file. Assign with exactly what it needs
            // (widening further if in-flight dead writes demand it),
            // within a hard cap — widening past it would mean the
            // widening loop itself is broken, not the input.
            fault::set_stage("assign");
            let start = machine.registers().max(ips_stats.max_live);
            let cap = machine.registers() as u64 + ips_stats.max_live as u64 + schedule.length();
            let (vliw, file) = widen_and_assign(&ddg, &schedule, machine, start, cap)?;
            if checking {
                validate::check_words(&vliw, machine, real_ops)?;
            }
            let ips_stats = IpsStats {
                max_live: file,
                ..ips_stats
            };
            let stats = CompileStats {
                schedule_length: vliw.cycle_count() as u64,
                spill_stores: 0,
                spill_loads: 0,
                memory_traffic: vliw.memory_traffic(),
                ops: vliw.op_count(),
                reg_overflow: ips_stats.max_live.saturating_sub(machine.registers()),
                sequence_edges: 0,
                critical_path: schedule.length(),
            };
            Ok(Compiled {
                vliw,
                stats,
                outcome: None,
                fallback: None,
            })
        }
    }
}

/// The allocation rungs tried for a configured discipline, most capable
/// first. Spill-only is always last among allocation rungs because
/// spilling is the one transformation that is always applicable (§4.3).
/// Integrated has no Phased rung: a Phased run after it never produced
/// the code (DESIGN.md §7).
fn ladder_for(configured: Strategy) -> Vec<Strategy> {
    match configured {
        Strategy::Integrated => vec![Strategy::Integrated, Strategy::SpillOnly],
        Strategy::Phased => vec![Strategy::Phased, Strategy::SpillOnly],
        Strategy::PhasedFuFirst => vec![
            Strategy::PhasedFuFirst,
            Strategy::Phased,
            Strategy::SpillOnly,
        ],
        Strategy::SpillOnly => vec![Strategy::SpillOnly],
    }
}

fn compile_ursa(
    program: &Program,
    trace: &Trace,
    machine: &Machine,
    config: UrsaConfig,
    opts: &PipelineOptions,
) -> Result<Compiled, CompileError> {
    let checking = opts.validate || cfg!(debug_assertions);
    let ddg0 = DependenceDag::build_with(program, trace, opts.ddg);
    if checking {
        validate::check_dag(Stage::Ddg, &ddg0)?;
    }
    let real_ops = validate::real_op_count(&ddg0);

    let rungs = if opts.no_fallback {
        vec![config.strategy]
    } else {
        ladder_for(config.strategy)
    };
    // ONE budget for the whole ladder: a rung that burns the wall-clock
    // allowance must not hand the next rung a fresh deadline.
    let budget = CompileBudget::new(opts.deadline, opts.max_steps, None);
    let mut attempts: Vec<(FallbackRung, RungFailure)> = Vec::new();
    let mut last_outcome: Option<AllocationOutcome> = None;
    for rung_strategy in rungs {
        let rung_config = UrsaConfig {
            strategy: rung_strategy,
            ..config
        };
        let rung = FallbackRung::Allocation(rung_strategy);
        fault::set_stage("allocation");
        let outcome = allocate_budgeted(ddg0.clone(), machine, &rung_config, &budget);
        if checking {
            validate::check_dag(Stage::Allocation, &outcome.ddg)?;
            validate::check_conservation(Stage::Allocation, real_ops, &outcome.ddg)?;
        }
        if outcome.budget_exhausted && (outcome.residual_excess > 0 || outcome.hit_iteration_limit)
        {
            // The budget is sticky; cheaper allocation rungs would stop
            // at their first checkpoint. Demote straight to the terminal
            // rung carrying this rung's best-so-far DAG (anytime
            // semantics).
            attempts.push((
                rung,
                RungFailure::Budget {
                    cause: budget.cause().unwrap_or(BudgetCause::Steps),
                },
            ));
            last_outcome = Some(outcome);
            break;
        }
        let why = if outcome.hit_iteration_limit {
            RungFailure::IterationLimit {
                iterations: rung_config.max_iterations,
            }
        } else if outcome.residual_excess > 0 {
            RungFailure::ResidualExcess {
                excess: outcome.residual_excess,
            }
        } else {
            fault::set_stage("schedule");
            let schedule = try_list_schedule(&outcome.ddg, machine)?;
            if checking {
                validate::check_schedule(&outcome.ddg, &schedule, machine)?;
            }
            fault::set_stage("assign");
            match assign_registers(&outcome.ddg, &schedule, machine) {
                Ok(vliw) => {
                    if checking {
                        validate::check_words(&vliw, machine, real_ops)?;
                    }
                    return Ok(finish_ursa(
                        vliw,
                        PatchStats::default(),
                        outcome,
                        FallbackReport { attempts, rung },
                    ));
                }
                Err(e) => RungFailure::AssignOverflow { cycle: e.cycle },
            }
        };
        attempts.push((rung, why));
        last_outcome = Some(outcome);
    }
    let outcome = last_outcome.expect("at least one allocation rung ran");
    if opts.no_fallback {
        if let Some(cause) = budget.cause() {
            return Err(CompileError::DeadlineExceeded {
                cause,
                steps: budget.steps(),
            });
        }
        return Err(CompileError::BudgetExhausted {
            iterations: config.max_iterations,
            residual_excess: outcome.residual_excess,
        });
    }
    // Terminal rung: postpass spill patching of the most-transformed DAG
    // (paper §2 makes the assignment phase responsible for residual
    // excess; §4.3 spilling is always applicable). It runs unmetered:
    // the epilogue is bounded work, and an exhausted budget must still
    // yield code, never a hang or a hard failure.
    fault::set_stage("schedule");
    let schedule = try_list_schedule(&outcome.ddg, machine)?;
    if checking {
        validate::check_schedule(&outcome.ddg, &schedule, machine)?;
    }
    fault::set_stage("patch");
    let (vliw, patch_stats) = try_patch_spills(&outcome.ddg, &schedule, machine)?;
    if checking {
        validate::check_words(&vliw, machine, real_ops)?;
    }
    Ok(finish_ursa(
        vliw,
        patch_stats,
        outcome,
        FallbackReport {
            attempts,
            rung: FallbackRung::PostpassPatch,
        },
    ))
}

fn finish_ursa(
    vliw: VliwProgram,
    patch_stats: PatchStats,
    outcome: AllocationOutcome,
    fallback: FallbackReport,
) -> Compiled {
    let stats = CompileStats {
        schedule_length: vliw.cycle_count() as u64,
        spill_stores: outcome.spill_count() + patch_stats.stores,
        spill_loads: outcome.spill_count() + patch_stats.loads,
        memory_traffic: vliw.memory_traffic(),
        ops: vliw.op_count(),
        reg_overflow: 0,
        sequence_edges: outcome.sequence_edge_count(),
        critical_path: outcome.critical_path,
    };
    Compiled {
        vliw,
        stats,
        outcome: Some(outcome),
        fallback: Some(fallback),
    }
}

/// Widens the register file from `start` until assignment succeeds,
/// refusing past `cap` (the Goodman–Hsu technique has no spill
/// mechanism, so the file must grow to what the code truly needs).
fn widen_and_assign(
    ddg: &DependenceDag,
    schedule: &Schedule,
    machine: &Machine,
    start: u32,
    mut cap: u64,
) -> Result<(VliwProgram, u32), CompileError> {
    if let Some(plan) = fault::trip(FaultSite::Widen) {
        match plan.kind {
            FaultKind::Panic => fault::trip_panic(FaultSite::Widen),
            // Collapse the widening cap: any widening attempt now hits
            // it and surfaces as a typed RegisterOverflow.
            _ => cap = 0,
        }
    }
    let mut file = start;
    loop {
        let widened = if file > machine.registers() {
            machine.with_registers(file)
        } else {
            machine.clone()
        };
        match assign_registers(ddg, schedule, &widened) {
            Ok(v) => return Ok((v, file)),
            Err(_) => {
                file += 1;
                if file as u64 > cap {
                    return Err(CompileError::RegisterOverflow {
                        needed: file,
                        available: machine.registers(),
                    });
                }
            }
        }
    }
}

/// Convenience: compile the entry block as a single-block trace.
pub fn compile_entry_block(
    program: &Program,
    machine: &Machine,
    strategy: CompileStrategy,
) -> Compiled {
    compile(program, &Trace::entry(), machine, strategy)
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

    fn all_strategies() -> Vec<CompileStrategy> {
        vec![
            CompileStrategy::Ursa(UrsaConfig::default()),
            CompileStrategy::Postpass,
            CompileStrategy::Prepass,
            CompileStrategy::GoodmanHsu,
        ]
    }

    #[test]
    fn every_strategy_compiles_fig2() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        for strategy in all_strategies() {
            let name = strategy.name();
            let c = compile_entry_block(&p, &machine, strategy);
            assert!(c.vliw.op_count() >= 11, "{name} lost operations");
            assert!(c.stats.schedule_length > 0, "{name}");
        }
    }

    #[test]
    fn ursa_outcome_present_only_for_ursa() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        let u = compile_entry_block(&p, &machine, CompileStrategy::Ursa(UrsaConfig::default()));
        assert!(u.outcome.is_some());
        assert!(u.fallback.is_some());
        let b = compile_entry_block(&p, &machine, CompileStrategy::Postpass);
        assert!(b.outcome.is_none());
        assert!(b.fallback.is_none());
    }

    #[test]
    fn ursa_respects_register_file_without_overflow() {
        let p = parse(FIG2).unwrap();
        for regs in [3u32, 4, 5] {
            let machine = Machine::homogeneous(4, regs);
            let c = compile_entry_block(&p, &machine, CompileStrategy::Ursa(UrsaConfig::default()));
            assert_eq!(c.stats.reg_overflow, 0);
            for word in &c.vliw.words {
                for op in word {
                    if let SlotOp::Instr(i) = &op.op {
                        for r in i.uses().into_iter().chain(i.def()) {
                            assert!(r.0 < regs, "{r} outside {regs}-register file");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn goodman_hsu_reports_overflow_on_tight_files() {
        let p = parse(FIG2).unwrap();
        // Width floor of Fig. 2 is 3 concurrent values on the critical
        // antichain; at 3 registers GH may or may not overflow, but its
        // emitted code always declares what it truly needs.
        let machine = Machine::homogeneous(8, 3);
        let c = compile_entry_block(&p, &machine, CompileStrategy::GoodmanHsu);
        assert_eq!(c.vliw.num_regs, machine.registers() + c.stats.reg_overflow);
    }

    #[test]
    fn goodman_hsu_widening_cap_is_honest() {
        // With an artificially tiny cap the widening loop must return a
        // typed overflow, not loop or panic.
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(8, 2);
        let ddg = DependenceDag::from_entry_block(&p);
        let (schedule, _) = ips_schedule(&ddg, &machine);
        let err = widen_and_assign(&ddg, &schedule, &machine, machine.registers(), 2).unwrap_err();
        assert!(matches!(
            err,
            CompileError::RegisterOverflow { available: 2, .. }
        ));
    }

    #[test]
    fn postpass_spills_more_than_ursa_under_pressure() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(4, 4);
        let u = compile_entry_block(&p, &machine, CompileStrategy::Ursa(UrsaConfig::default()));
        let b = compile_entry_block(&p, &machine, CompileStrategy::Postpass);
        // URSA sequences instead of spilling where possible (§5).
        assert!(
            u.stats.memory_traffic <= b.stats.memory_traffic,
            "ursa {} vs postpass {}",
            u.stats.memory_traffic,
            b.stats.memory_traffic
        );
    }

    #[test]
    fn clean_compile_reports_top_rung() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 16);
        let c = compile_entry_block(&p, &machine, CompileStrategy::Ursa(UrsaConfig::default()));
        let report = c.fallback.expect("ursa reports fallback");
        assert!(!report.degraded());
        assert_eq!(report.rung, FallbackRung::Allocation(Strategy::Integrated));
    }

    #[test]
    fn budget_demotion_is_recorded_and_code_still_emitted() {
        // A one-step cap exhausts during the first allocation rung; the
        // ladder must demote straight to the terminal rung, record the
        // Budget failure, and still emit all the code (anytime
        // semantics — a budget stop is never a hard failure).
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        let opts = PipelineOptions {
            max_steps: Some(1),
            ..Default::default()
        };
        let c = try_compile_with(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(UrsaConfig::default()),
            &opts,
        )
        .expect("budget exhaustion must degrade, not fail");
        assert!(c.vliw.op_count() >= 11, "operations were lost");
        let report = c.fallback.expect("ursa reports fallback");
        assert!(report.degraded());
        assert_eq!(report.rung, FallbackRung::PostpassPatch);
        assert!(
            report.attempts.iter().any(|(_, why)| matches!(
                why,
                RungFailure::Budget {
                    cause: ursa_core::BudgetCause::Steps
                }
            )),
            "no Budget rung failure recorded: {report}"
        );
        // Exactly one allocation rung was attempted: a sticky budget
        // makes retrying cheaper allocation rungs pointless.
        assert_eq!(report.attempts.len(), 1, "{report}");
    }

    #[test]
    fn no_fallback_budget_is_a_typed_deadline_error() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        let opts = PipelineOptions {
            no_fallback: true,
            max_steps: Some(1),
            ..Default::default()
        };
        let err = try_compile_with(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(UrsaConfig::default()),
            &opts,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::DeadlineExceeded {
                    cause: ursa_core::BudgetCause::Steps,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn injected_panic_is_isolated_to_a_typed_internal_error() {
        use ursa_core::FaultPlan;
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        fault::arm(FaultPlan {
            site: FaultSite::Driver,
            kind: FaultKind::Panic,
            payload: 0,
        });
        let opts = PipelineOptions {
            isolate: true,
            ..Default::default()
        };
        let result = try_compile_with(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(UrsaConfig::default()),
            &opts,
        );
        let _ = fault::disarm();
        let err = result.unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::Internal {
                    stage: "allocation"
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn deadline_bounds_a_1024_op_fu_pressure_compile() {
        use std::time::Instant;
        use ursa_workloads::random::{random_block, RandomShape};
        // Two universal FUs against a ~64-wide DAG force round after
        // round of fu_seq; the register file is generous so FU
        // sequentialization is the only pressured transform. The
        // deadline must stop the reduce loop at a checkpoint and the
        // terminal rung must still emit every operation, well inside
        // the 2 s acceptance bound.
        let p = random_block(
            11,
            RandomShape {
                ops: 1024,
                seeds: 8,
                window: 16,
                store_pct: 10,
            },
        );
        let machine = Machine::homogeneous(2, 1 << 14);
        let opts = PipelineOptions {
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        let start = Instant::now();
        let c = try_compile_with(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(UrsaConfig::default()),
            &opts,
        )
        .expect("a deadline stop must degrade, not fail");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "compile took {elapsed:?} under a 100 ms deadline"
        );
        assert!(c.vliw.op_count() >= 1024, "operations were lost");
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let p = parse(FIG2).unwrap();
        let machine = Machine::homogeneous(3, 4);
        let err = try_compile(
            &p,
            &Trace { blocks: vec![] },
            &machine,
            CompileStrategy::Postpass,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CompileError::UnsupportedTrace { blocks: 0, .. }
        ));
    }
}
