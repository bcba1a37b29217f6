//! `stress` — seeded differential stress harness for the fail-safe
//! pipeline.
//!
//! Drives deterministic random programs (`ursa-workloads::random`)
//! through every compilation strategy on a grid of machines, inside
//! `catch_unwind`, and verifies each compile with **two independent
//! oracles**: the differential reference interpreter (`ursa-vm::equiv`,
//! one concrete input) and the static translation validator
//! (`ursa-lint`, all inputs at once). Either oracle rejecting fails the
//! case; when they disagree the failure is annotated — a static-only
//! reject can be a validator bug or a latent miscompile the seeded
//! input missed, and both deserve a look. Every failure prints the
//! exact seed and a single-case repro command.
//!
//! ```text
//! stress                          # default grid, seeds 0..64
//! stress --seeds 0..256           # acceptance sweep
//! stress --seeds 41..42           # one seed (repro)
//! stress --validate               # stage invariant checks on
//! stress --paranoid-measure       # differential incremental-measure checks
//! stress --machine vliw2r3        # filter machines by name substring
//! stress --strategy ursa-phased   # filter strategies by name
//! stress --programs               # multi-block CFGs through the whole-program driver
//! stress --quality                # third oracle: bounds-based quality lints (counted)
//! stress --chaos                  # fault injection: programs × fault plans
//! stress --chaos --plans 8        # fault plans per (seed, machine, strategy)
//! stress --chaos --fault-seed 7   # base seed for the fault-plan derivation
//! stress --deadline-ms 50         # wall-clock budget per compilation
//! stress --max-steps 100000       # cooperative work-step cap per compilation
//! ```
//!
//! **Programs mode** (`--programs`) swaps the straight-line generator
//! for seeded multi-block CFGs (diamonds, counted loops, side exits)
//! and the per-trace pipeline for the whole-program driver
//! (`ursa_sched::compile_program`). The oracles scale with it: the
//! static side is `ursa_lint::lint_program` (per-unit validator replay
//! plus the boundary hand-off contract), the dynamic side is
//! `check_program_equivalence` (sequential reference vs. the stitched
//! unit schedules on one seeded input).
//!
//! **Quality mode** (`--quality`) runs the schedule-quality analyzer
//! (`ursa-lint::bounds`, the `U03xx` family) as a **third oracle** over
//! every successful compile: quality warnings are counted and reported
//! in the summary but never fail a case — suboptimality is not a
//! miscompile, and the dual correctness oracles keep the final word.
//!
//! **Chaos mode** arms one seeded [`ursa_core::FaultPlan`] per case
//! (allocation refusals, poisoned matching rows, widening-cap hits,
//! synthetic panics, budget starvation — each at a named stage site)
//! and compiles with panic isolation on. The contract it enforces:
//! every case ends in working verified code **or a typed error — never
//! a raw panic, never a miscompile**. Successful compiles still run
//! both oracles; a typed error is counted, attributed, and accepted.
//!
//! After the summary, one `rungs[<strategy>]:` line per URSA strategy
//! counts which rung of the degradation ladder produced the code of
//! each passing case: per compile, or per unit in programs mode.
//!
//! Exit status: 0 when every case passes, 1 otherwise.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use ursa_core::{Strategy, UrsaConfig};
use ursa_ir::ddg::DependenceDag;
use ursa_ir::Trace;
use ursa_lint::{analyze_quality, lint_program, validate_translation, BoundsOptions};
use ursa_machine::Machine;
use ursa_rng::Rng;
use ursa_sched::{
    try_compile_program, try_compile_with, CompileError, CompileStrategy, FallbackRung,
    PipelineOptions,
};
use ursa_vm::equiv::{check_equivalence, seeded_memory};
use ursa_vm::program::check_program_equivalence;
use ursa_workloads::random::{random_block, random_cfg, CfgShape, RandomShape};

struct Options {
    seeds: std::ops::Range<u64>,
    validate: bool,
    paranoid_measure: bool,
    machine_filter: Option<String>,
    strategy_filter: Option<String>,
    programs: bool,
    quality: bool,
    chaos: bool,
    fault_seed: u64,
    plans: u64,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 0..64,
        validate: false,
        paranoid_measure: false,
        machine_filter: None,
        strategy_filter: None,
        programs: false,
        quality: false,
        chaos: false,
        fault_seed: 0,
        plans: 8,
        deadline_ms: None,
        max_steps: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let spec = take("--seeds")?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got '{spec}'"))?;
                let lo: u64 = a.parse().map_err(|e| format!("--seeds: {e}"))?;
                let hi: u64 = b.parse().map_err(|e| format!("--seeds: {e}"))?;
                opts.seeds = lo..hi;
            }
            "--validate" => opts.validate = true,
            "--paranoid-measure" => opts.paranoid_measure = true,
            "--machine" => opts.machine_filter = Some(take("--machine")?),
            "--strategy" => opts.strategy_filter = Some(take("--strategy")?),
            "--programs" => opts.programs = true,
            "--quality" => opts.quality = true,
            "--chaos" => opts.chaos = true,
            "--fault-seed" => {
                opts.fault_seed = take("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--plans" => {
                opts.plans = take("--plans")?
                    .parse()
                    .map_err(|e| format!("--plans: {e}"))?;
                if opts.plans == 0 {
                    return Err("--plans must be at least 1".to_string());
                }
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--max-steps" => {
                opts.max_steps = Some(
                    take("--max-steps")?
                        .parse()
                        .map_err(|e| format!("--max-steps: {e}"))?,
                )
            }
            "--help" | "-h" => {
                return Err(
                    "usage: stress [--seeds A..B] [--validate] [--paranoid-measure] \
                            [--machine NAME] [--strategy NAME] [--programs] [--quality] \
                            [--chaos] [--fault-seed N] [--plans N] [--deadline-ms N] \
                            [--max-steps N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// The machine grid: homogeneous shapes from scalar to wide, tight to
/// roomy register files (≥ 3, the pipeline's floor), plus the classed
/// and pipelined machines.
fn machine_grid() -> Vec<Machine> {
    let mut machines = Vec::new();
    for fus in [1u32, 2, 4] {
        for regs in [3u32, 4, 8, 16] {
            machines.push(Machine::homogeneous(fus, regs));
        }
    }
    // High FU pressure with a register file wide enough to never spill:
    // allocation is pure FU sequentialization, driving the monotone
    // antichain repeat loop (and, on wide traces, its frozen-cost
    // picker) under the ParanoidMeasure differential oracle.
    machines.push(Machine::homogeneous(2, 1 << 12));
    machines.push(Machine::classic_vliw());
    machines.push(Machine::pipelined_vliw());
    machines
}

/// Strategy menu: the four public kinds plus URSA's alternate
/// disciplines, so every rung of the degradation ladder gets exercised.
/// With `paranoid_measure` the URSA strategies cross-check every
/// incremental measurement probe against a from-scratch measurement
/// (`ParanoidMeasure`); any disagreement panics and is reported as a
/// failure with its seed.
fn strategy_menu(paranoid_measure: bool) -> Vec<(&'static str, CompileStrategy)> {
    let ursa = |strategy| {
        CompileStrategy::Ursa(UrsaConfig {
            strategy,
            paranoid_measure,
            ..UrsaConfig::default()
        })
    };
    vec![
        ("ursa", ursa(Strategy::Integrated)),
        ("ursa-phased", ursa(Strategy::Phased)),
        ("ursa-fu-first", ursa(Strategy::PhasedFuFirst)),
        ("ursa-spill-only", ursa(Strategy::SpillOnly)),
        ("postpass", CompileStrategy::Postpass),
        ("prepass", CompileStrategy::Prepass),
        ("goodman-hsu", CompileStrategy::GoodmanHsu),
    ]
}

/// Every rung of every ladder, in the order the histogram prints them.
const RUNGS: [FallbackRung; 5] = [
    FallbackRung::Allocation(Strategy::Integrated),
    FallbackRung::Allocation(Strategy::Phased),
    FallbackRung::Allocation(Strategy::PhasedFuFirst),
    FallbackRung::Allocation(Strategy::SpillOnly),
    FallbackRung::PostpassPatch,
];

/// Program shape drawn deterministically from the seed, spanning chains
/// to wide blocks.
fn shape_for(seed: u64) -> RandomShape {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5745_4544);
    RandomShape {
        ops: rng.gen_range(8usize..96),
        seeds: rng.gen_range(1usize..8),
        window: rng.gen_range(2usize..24),
        store_pct: rng.gen_range(0u32..40),
    }
}

/// CFG shape drawn deterministically from the seed, spanning short
/// single-region programs to chains of nested control flow.
fn cfg_shape_for(seed: u64) -> CfgShape {
    let mut rng = Rng::seed_from_u64(seed ^ 0x4347_5748);
    CfgShape {
        regions: rng.gen_range(1usize..5),
        block_ops: rng.gen_range(2usize..10),
        loop_pct: rng.gen_range(0u32..60),
        exit_pct: rng.gen_range(0u32..50),
    }
}

enum CaseResult {
    Pass {
        /// Quality-mode third oracle: `U03xx` warnings observed on this
        /// verified-correct compile. Counted, never failing.
        quality_warnings: u64,
        /// The ladder rung that produced the code, per compiled unit
        /// (empty for strategies without a ladder).
        rungs: Vec<FallbackRung>,
    },
    /// The strategy refused the input for an expected, typed reason
    /// (Goodman–Hsu cannot spill, so honest overflow refusals count).
    Refused,
    /// Chaos mode: the injected fault surfaced as a typed
    /// [`CompileError`] — exactly the contract. `internal` marks a
    /// synthetic panic converted by the isolation boundary.
    Typed { internal: bool },
    Fail {
        why: String,
        /// The static validator rejected the code.
        static_reject: bool,
        /// The two oracles disagreed (one accepted, one rejected).
        disagreement: bool,
    },
}

impl CaseResult {
    fn fail(why: impl Into<String>) -> CaseResult {
        CaseResult::Fail {
            why: why.into(),
            static_reject: false,
            disagreement: false,
        }
    }
}

fn run_case(
    seed: u64,
    machine: &Machine,
    strategy_name: &str,
    strategy: &CompileStrategy,
    opts: &PipelineOptions,
    chaos: bool,
    quality: bool,
) -> CaseResult {
    let program = random_block(seed, shape_for(seed));
    let trace = Trace::entry();
    let gh = matches!(strategy, CompileStrategy::GoodmanHsu);
    // The outer catch_unwind is the harness backstop: with isolation on
    // (chaos mode) a panic reaching it means the isolation boundary
    // itself failed, which is a reportable bug, not a typed error.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        try_compile_with(&program, &trace, machine, strategy.clone(), opts)
    }));
    let compiled = match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return CaseResult::fail(format!("panic: {msg}"));
        }
        Ok(Err(CompileError::RegisterOverflow { .. })) if gh => return CaseResult::Refused,
        Ok(Err(e)) if chaos => {
            // Chaos contract: a typed error is a pass. Only record
            // whether it was a converted synthetic panic.
            return CaseResult::Typed {
                internal: matches!(e, CompileError::Internal { .. }),
            };
        }
        Ok(Err(e)) => return CaseResult::fail(format!("compile error: {e}")),
        Ok(Ok(c)) => c,
    };
    let rungs = compiled.fallback.iter().map(|r| r.rung).collect();
    // Oracle 1: the static translation validator, against the DAG the
    // code was generated from. Prepass code is pre-colored before its
    // DAG exists, so the validator cannot map its live-ins; skip it
    // there (the differential oracle still covers it).
    let static_verdict: Option<Vec<String>> = if matches!(strategy, CompileStrategy::Prepass) {
        None
    } else {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let built;
            let reference = match &compiled.outcome {
                Some(o) => &o.ddg,
                None => {
                    built = DependenceDag::build(&program, &trace);
                    &built
                }
            };
            validate_translation(reference, &compiled.vliw, machine)
                .diagnostics
                .iter()
                .filter(|d| d.severity() == ursa_lint::Severity::Error)
                .map(|d| d.to_string())
                .collect::<Vec<String>>()
        }));
        match run {
            Err(_) => return CaseResult::fail("panic during static validation"),
            Ok(errors) => Some(errors),
        }
    };
    // Oracle 2: differential execution against the sequential reference
    // interpreter on one seeded input. Goodman–Hsu declares the file it
    // truly needs; execute on it.
    let exec_machine = if compiled.vliw.num_regs > machine.registers() {
        machine.with_registers(compiled.vliw.num_regs)
    } else {
        machine.clone()
    };
    let memory = seeded_memory(&program, 256, seed);
    let check = catch_unwind(AssertUnwindSafe(|| {
        check_equivalence(
            &program,
            &compiled.vliw,
            &exec_machine,
            &memory,
            &HashMap::new(),
        )
    }));
    let dynamic_err: Option<String> = match check {
        Err(_) => Some("panic during differential execution".to_string()),
        Ok(Err(e)) => Some(format!("differential check ({strategy_name}): {e}")),
        Ok(Ok(())) => None,
    };
    // Oracle 3 (quality mode, advisory): the bounds-based schedule
    // quality analyzer on the untransformed DAG. Warnings are counted,
    // never a failure — only a panic in the analyzer itself is a bug.
    // The analyzer replays measurement code, so an armed fault plan
    // must be cleared first (as `lint_program` does in programs mode).
    let quality_warnings = if quality {
        if chaos {
            let _ = ursa_core::fault::disarm();
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            let ddg = DependenceDag::build(&program, &trace);
            let (_, diags) = analyze_quality(&ddg, machine, &compiled, BoundsOptions::default());
            diags
                .iter()
                .filter(|d| d.severity() == ursa_lint::Severity::Warning)
                .count() as u64
        }));
        match run {
            Err(_) => return CaseResult::fail("panic during quality analysis"),
            Ok(n) => n,
        }
    } else {
        0
    };
    let static_errs = static_verdict.as_ref().filter(|e| !e.is_empty());
    match (static_errs, dynamic_err) {
        (None, None) => CaseResult::Pass {
            quality_warnings,
            rungs,
        },
        (Some(se), None) => CaseResult::Fail {
            why: format!(
                "static validator rejected, dynamic oracle passed (ORACLE DISAGREEMENT): {}",
                se.join("; ")
            ),
            static_reject: true,
            disagreement: true,
        },
        (None, Some(de)) => {
            let disagreement = static_verdict.is_some();
            let note = if disagreement {
                " — static validator accepted (ORACLE DISAGREEMENT)"
            } else {
                ""
            };
            CaseResult::Fail {
                why: format!("{de}{note}"),
                static_reject: false,
                disagreement,
            }
        }
        (Some(se), Some(de)) => CaseResult::Fail {
            why: format!("{de}; static validator agrees: {}", se.join("; ")),
            static_reject: true,
            disagreement: false,
        },
    }
}

/// Programs-mode analog of [`run_case`]: a random multi-block CFG
/// through the whole-program driver, checked by the whole-program
/// oracle pair.
fn run_program_case(
    seed: u64,
    machine: &Machine,
    strategy_name: &str,
    strategy: &CompileStrategy,
    opts: &PipelineOptions,
    chaos: bool,
) -> CaseResult {
    // Quality mode rides on `opts.bounds` here: `lint_program` already
    // runs the bounds analyzer per unit when it is set, so the third
    // oracle is the same lint pass, read twice — errors fail the case,
    // `U03xx` warnings are only counted. Prepass skips the static
    // oracle entirely, so its quality count is 0 by construction.
    let program = random_cfg(seed, cfg_shape_for(seed));
    let gh = matches!(strategy, CompileStrategy::GoodmanHsu);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        try_compile_program(&program, machine, strategy.clone(), opts)
    }));
    let sched = match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return CaseResult::fail(format!("panic: {msg}"));
        }
        Ok(Err(CompileError::RegisterOverflow { .. })) if gh => return CaseResult::Refused,
        Ok(Err(e)) if chaos => {
            return CaseResult::Typed {
                internal: matches!(e, CompileError::Internal { .. }),
            };
        }
        Ok(Err(e)) => return CaseResult::fail(format!("compile error: {e}")),
        Ok(Ok(s)) => s,
    };
    let rungs = sched
        .units
        .iter()
        .filter_map(|u| u.compiled.fallback.as_ref().map(|r| r.rung))
        .collect();
    // The fault plan targets the pipeline. A plan whose site was never
    // reached during a successful compile stays armed, and unlike the
    // single-block oracles, `lint_program` replays measurement code and
    // would trip it; disarm before judging the artifact.
    if chaos {
        let _ = ursa_core::fault::disarm();
    }
    // Oracle 1: whole-program lint — per-unit validator replay plus the
    // boundary hand-off contract (U0201/U0202). Prepass code is
    // pre-colored before its DAG exists, so the validator cannot map
    // its live-ins; skip it there, as in single-block mode.
    let mut quality_warnings = 0u64;
    let static_verdict: Option<Vec<String>> = if matches!(strategy, CompileStrategy::Prepass) {
        None
    } else {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let report = lint_program(&program, &sched, machine, strategy, opts);
            let quality = report
                .diagnostics
                .iter()
                .filter(|d| {
                    d.severity() == ursa_lint::Severity::Warning
                        && d.code.as_str().starts_with("U03")
                })
                .count() as u64;
            let errors = report
                .diagnostics
                .iter()
                .filter(|d| d.severity() == ursa_lint::Severity::Error)
                .map(|d| d.to_string())
                .collect::<Vec<String>>();
            (errors, quality)
        }));
        match run {
            Err(_) => return CaseResult::fail("panic during whole-program lint"),
            Ok((errors, quality)) => {
                quality_warnings = quality;
                Some(errors)
            }
        }
    };
    // Oracle 2: differential execution of the stitched unit schedules
    // against the sequential reference. Goodman–Hsu declares the file
    // it truly needs; execute on the widest unit's file.
    let widest = sched
        .units
        .iter()
        .map(|u| u.compiled.vliw.num_regs)
        .max()
        .unwrap_or(0);
    let exec_machine = if widest > machine.registers() {
        machine.with_registers(widest)
    } else {
        machine.clone()
    };
    let memory = seeded_memory(&program, 256, seed);
    let check = catch_unwind(AssertUnwindSafe(|| {
        check_program_equivalence(&program, &sched, &exec_machine, &memory, &HashMap::new())
    }));
    let dynamic_err: Option<String> = match check {
        Err(_) => Some("panic during differential execution".to_string()),
        Ok(Err(e)) => Some(format!("differential check ({strategy_name}): {e}")),
        Ok(Ok(())) => None,
    };
    let static_errs = static_verdict.as_ref().filter(|e| !e.is_empty());
    match (static_errs, dynamic_err) {
        (None, None) => CaseResult::Pass {
            quality_warnings,
            rungs,
        },
        (Some(se), None) => CaseResult::Fail {
            why: format!(
                "static validator rejected, dynamic oracle passed (ORACLE DISAGREEMENT): {}",
                se.join("; ")
            ),
            static_reject: true,
            disagreement: true,
        },
        (None, Some(de)) => {
            let disagreement = static_verdict.is_some();
            let note = if disagreement {
                " — static validator accepted (ORACLE DISAGREEMENT)"
            } else {
                ""
            };
            CaseResult::Fail {
                why: format!("{de}{note}"),
                static_reject: false,
                disagreement,
            }
        }
        (Some(se), Some(de)) => CaseResult::Fail {
            why: format!("{de}; static validator agrees: {}", se.join("; ")),
            static_reject: true,
            disagreement: false,
        },
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("stress: {msg}");
            return ExitCode::from(2);
        }
    };
    // The harness reports panics itself, with seeds attached; the
    // default per-panic banner would drown the summary.
    std::panic::set_hook(Box::new(|_| {}));
    let machines = machine_grid();
    let strategies = strategy_menu(opts.paranoid_measure);
    let pipeline = PipelineOptions {
        validate: opts.validate,
        no_fallback: false,
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        max_steps: opts.max_steps,
        // Chaos plans include synthetic panics; the pipeline must
        // convert them to typed errors at the trace boundary.
        isolate: opts.chaos,
        // Quality mode: programs-mode lint_program picks this up and
        // runs the bounds analyzer per unit (zero slack — every gap
        // over the certificate is counted).
        bounds: if opts.quality { Some(0) } else { None },
        ..Default::default()
    };
    let plans = if opts.chaos { opts.plans } else { 1 };
    let (mut cases, mut refusals, mut failures) = (0u64, 0u64, 0u64);
    let (mut static_rejects, mut disagreements) = (0u64, 0u64);
    let (mut typed_errors, mut isolated_panics) = (0u64, 0u64);
    let (mut quality_total, mut quality_flagged_cases) = (0u64, 0u64);
    let mut rung_counts = vec![[0u64; RUNGS.len()]; strategies.len()];
    for seed in opts.seeds.clone() {
        for machine in &machines {
            if let Some(f) = &opts.machine_filter {
                if !machine.name().contains(f.as_str()) {
                    continue;
                }
            }
            for ((name, strategy), counts) in strategies.iter().zip(&mut rung_counts) {
                if let Some(f) = &opts.strategy_filter {
                    if *name != f.as_str() {
                        continue;
                    }
                }
                for plan_idx in 0..plans {
                    // Every program seed sweeps the same plan set, so a
                    // failing case reproduces with `--fault-seed
                    // <derived> --plans 1` regardless of filters.
                    let fault_seed = opts.fault_seed.wrapping_add(plan_idx);
                    if opts.chaos {
                        ursa_core::fault::arm(ursa_core::FaultPlan::from_seed(fault_seed));
                    }
                    cases += 1;
                    let result = if opts.programs {
                        run_program_case(seed, machine, name, strategy, &pipeline, opts.chaos)
                    } else {
                        run_case(
                            seed,
                            machine,
                            name,
                            strategy,
                            &pipeline,
                            opts.chaos,
                            opts.quality,
                        )
                    };
                    // A plan whose site was never reached stays armed;
                    // clear it so it cannot leak into the next case.
                    let _ = ursa_core::fault::disarm();
                    match result {
                        CaseResult::Pass {
                            quality_warnings,
                            rungs,
                        } => {
                            quality_total += quality_warnings;
                            quality_flagged_cases += u64::from(quality_warnings > 0);
                            for rung in rungs {
                                let i = RUNGS
                                    .iter()
                                    .position(|&r| r == rung)
                                    .expect("every rung is listed");
                                counts[i] += 1;
                            }
                        }
                        CaseResult::Refused => refusals += 1,
                        CaseResult::Typed { internal } => {
                            typed_errors += 1;
                            isolated_panics += u64::from(internal);
                        }
                        CaseResult::Fail {
                            why,
                            static_reject,
                            disagreement,
                        } => {
                            failures += 1;
                            static_rejects += u64::from(static_reject);
                            disagreements += u64::from(disagreement);
                            let programs = if opts.programs { " --programs" } else { "" };
                            let quality = if opts.quality { " --quality" } else { "" };
                            let validate = if opts.validate { " --validate" } else { "" };
                            let paranoid = if opts.paranoid_measure {
                                " --paranoid-measure"
                            } else {
                                ""
                            };
                            let mut budget = String::new();
                            if let Some(ms) = opts.deadline_ms {
                                budget.push_str(&format!(" --deadline-ms {ms}"));
                            }
                            if let Some(n) = opts.max_steps {
                                budget.push_str(&format!(" --max-steps {n}"));
                            }
                            let chaos = if opts.chaos {
                                format!(
                                    " --chaos --fault-seed {fault_seed} --plans 1 (plan {})",
                                    ursa_core::FaultPlan::from_seed(fault_seed)
                                )
                            } else {
                                String::new()
                            };
                            println!(
                                "FAIL seed={seed} machine={} strategy={name}{}: {why}",
                                machine.name(),
                                if opts.chaos {
                                    format!(" fault-seed={fault_seed}")
                                } else {
                                    String::new()
                                }
                            );
                            println!(
                                "  repro: cargo run --release -p ursa-bench --bin stress -- \
                                 --seeds {seed}..{} --machine {} --strategy \
                                 {name}{programs}{quality}{validate}{paranoid}{budget}{chaos}",
                                seed + 1,
                                machine.name(),
                            );
                        }
                    }
                }
            }
        }
    }
    let _ = std::panic::take_hook();
    let chaos_note = if opts.chaos {
        format!(
            ", {typed_errors} typed errors under fault injection \
             ({isolated_panics} isolated panics)"
        )
    } else {
        String::new()
    };
    let mode = if opts.programs {
        " (whole-program mode)"
    } else {
        ""
    };
    let quality_note = if opts.quality {
        format!(
            ", {quality_total} quality warnings on {quality_flagged_cases} cases \
             (advisory, third oracle)"
        )
    } else {
        String::new()
    };
    println!(
        "stress: {cases} cases{mode} over seeds {}..{}, {refusals} typed refusals, \
         {failures} failures ({static_rejects} static rejects, {disagreements} oracle \
         disagreements){chaos_note}{quality_note}",
        opts.seeds.start, opts.seeds.end
    );
    for ((name, _), counts) in strategies.iter().zip(&rung_counts) {
        let histogram: Vec<String> = RUNGS
            .iter()
            .zip(counts)
            .filter(|&(_, &n)| n > 0)
            .map(|(rung, n)| format!("{rung}={n}"))
            .collect();
        if !histogram.is_empty() {
            println!("rungs[{name}]: {}", histogram.join(" "));
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
