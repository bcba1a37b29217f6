//! `ursac` — the URSA command-line compiler.
//!
//! Compiles a textual three-address program (see `ursa-ir`'s grammar)
//! for a VLIW machine and prints the wide words, the measured resource
//! requirements, a DOT rendering, or the simulated execution:
//!
//! ```text
//! ursac program.tac                        # compile & print VLIW code
//! ursac program.tac --fus 4 --regs 8       # machine shape
//! ursac program.tac --classic              # classed machine w/ latencies
//! ursac program.tac --pipelined            # pipelined classed machine
//! ursac program.tac --machine m.json       # machine from a JSON description
//! ursac program.tac --strategy postpass    # ursa|postpass|prepass|gh
//! ursac program.tac --measure              # requirements only
//! ursac program.tac --dot                  # DOT graph of the trace DAG
//! ursac program.tac --run                  # compile, simulate, show memory
//! ursac program.tac --unroll 4             # unroll the first self-loop
//! ursac program.tac --validate             # stage invariant checks on
//! ursac program.tac --max-iterations 16    # URSA reduction budget
//! ursac program.tac --no-fallback          # fail instead of degrading
//! ursac program.tac --lint                 # static lint, warn level
//! ursac program.tac --lint=deny            # lint warnings fail too
//! ursac program.tac --bounds               # quality analysis (U03xx)
//! ursac program.tac --bounds=2             # ... with 2 cycles of slack
//! ursac program.tac --dot-annotated        # DOT + pressure/lint colors
//! ursac program.tac --deadline-ms 2000     # wall-clock compile budget
//! ursac program.tac --max-steps 1000000    # cooperative work-step cap
//! ursac program.tac --chaos-seed 7         # arm one seeded fault plan
//! ursac program.tac --whole-program        # compile the full CFG
//! ```
//!
//! Multi-block programs compile **whole-program by default**: the CFG is
//! partitioned into single-entry units, cross-unit values travel through
//! the `__boundary` hand-off area, and every unit runs through the full
//! per-trace pipeline. `--unroll`, `--dot`, `--measure` and
//! `--dot-annotated` keep the classic single-trace view (the hottest
//! block); `--whole-program` forces the program driver even for
//! single-block inputs.
//!
//! Exit status: 0 on success, 1 on compilation or simulation failure,
//! 2 on usage errors and lint denials, 3 when the compile budget
//! (`--deadline-ms` / `--max-steps`, or the allocation iteration budget
//! under `--no-fallback`) was exhausted.

use std::collections::HashMap;
use std::process::ExitCode;
use ursa::core::{find_excessive, measure, AllocCtx, MeasureOptions, UrsaConfig};
use ursa::ir::ddg::DependenceDag;
use ursa::ir::dot::{to_dot, to_dot_annotated, DotAnnotation};
use ursa::ir::program::Program;
use ursa::ir::unroll::{find_self_loop, unroll_self_loop};
use ursa::ir::{parse, Trace};
use ursa::lint::{lint_compiled, lint_compiled_opts, lint_program, Severity};
use ursa::machine::Machine;
use ursa::sched::{
    try_compile_program, try_compile_with, CompileError, CompileStrategy, LintLevel,
    PipelineOptions,
};
use ursa::vm::equiv::seeded_memory;
use ursa::vm::program::run_program;
use ursa::vm::wide::run_vliw;

struct Options {
    input: String,
    fus: u32,
    regs: Option<u32>,
    classic: bool,
    pipelined: bool,
    machine_file: Option<String>,
    strategy: String,
    measure_only: bool,
    dot: bool,
    run: bool,
    unroll: Option<usize>,
    validate: bool,
    max_iterations: Option<usize>,
    no_fallback: bool,
    lint: LintLevel,
    bounds: Option<u64>,
    dot_annotated: bool,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    chaos_seed: Option<u64>,
    whole_program: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        fus: 4,
        regs: None,
        classic: false,
        pipelined: false,
        machine_file: None,
        strategy: "ursa".to_string(),
        measure_only: false,
        dot: false,
        run: false,
        unroll: None,
        validate: false,
        max_iterations: None,
        no_fallback: false,
        lint: LintLevel::Allow,
        bounds: None,
        dot_annotated: false,
        deadline_ms: None,
        max_steps: None,
        chaos_seed: None,
        whole_program: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--fus" => opts.fus = take("--fus")?.parse().map_err(|e| format!("--fus: {e}"))?,
            "--regs" => {
                opts.regs = Some(
                    take("--regs")?
                        .parse()
                        .map_err(|e| format!("--regs: {e}"))?,
                )
            }
            "--classic" => opts.classic = true,
            "--pipelined" => opts.pipelined = true,
            "--machine" => opts.machine_file = Some(take("--machine")?),
            "--strategy" => opts.strategy = take("--strategy")?,
            "--measure" => opts.measure_only = true,
            "--dot" => opts.dot = true,
            "--run" => opts.run = true,
            "--unroll" => {
                opts.unroll = Some(
                    take("--unroll")?
                        .parse()
                        .map_err(|e| format!("--unroll: {e}"))?,
                )
            }
            "--validate" => opts.validate = true,
            "--max-iterations" => {
                opts.max_iterations = Some(
                    take("--max-iterations")?
                        .parse()
                        .map_err(|e| format!("--max-iterations: {e}"))?,
                )
            }
            "--no-fallback" => opts.no_fallback = true,
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
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    take("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?,
                )
            }
            "--lint" => opts.lint = LintLevel::Warn,
            "--bounds" => opts.bounds = Some(0),
            "--dot-annotated" => opts.dot_annotated = true,
            "--whole-program" => opts.whole_program = true,
            other if other.starts_with("--lint=") => {
                let level = &other["--lint=".len()..];
                opts.lint = LintLevel::parse(level)
                    .ok_or_else(|| format!("--lint: unknown level '{level}'"))?;
            }
            other if other.starts_with("--bounds=") => {
                let slack = &other["--bounds=".len()..];
                opts.bounds = Some(slack.parse().map_err(|e| format!("--bounds: {e}"))?);
            }
            "--help" | "-h" => return Err("usage: ursac <file.tac> [options]".to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            file => {
                if !opts.input.is_empty() {
                    return Err("multiple input files given".to_string());
                }
                opts.input = file.to_string();
            }
        }
    }
    if opts.input.is_empty() {
        return Err("no input file (try --help)".to_string());
    }
    if opts.machine_file.is_some() && (opts.classic || opts.pipelined) {
        return Err("--machine conflicts with --classic/--pipelined".to_string());
    }
    // The quality analysis reports through the lint battery; asking for
    // it implies at least warn-level linting.
    if opts.bounds.is_some() && opts.lint == LintLevel::Allow {
        opts.lint = LintLevel::Warn;
    }
    Ok(opts)
}

fn build_machine(opts: &Options) -> Result<Machine, String> {
    if let Some(path) = &opts.machine_file {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let machine = Machine::from_json(&json).map_err(|e| e.to_string())?;
        return match opts.regs {
            Some(regs) => machine.try_with_registers(regs).map_err(|e| e.to_string()),
            None => Ok(machine),
        };
    }
    if opts.classic || opts.pipelined {
        let base = if opts.pipelined {
            Machine::pipelined_vliw()
        } else {
            Machine::classic_vliw()
        };
        base.try_with_registers(opts.regs.unwrap_or(16))
            .map_err(|e| e.to_string())
    } else {
        Machine::try_homogeneous(opts.fus, opts.regs.unwrap_or(16)).map_err(|e| e.to_string())
    }
}

/// The whole-program path: unit selection + boundary compensation +
/// per-unit pipeline, program-level lint, stitched simulation.
fn compile_whole_program(
    program: &Program,
    machine: &Machine,
    strategy: CompileStrategy,
    pipeline: &PipelineOptions,
    opts: &Options,
) -> ExitCode {
    let sched = match try_compile_program(program, machine, strategy.clone(), pipeline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ursac: {e}");
            return match e {
                CompileError::DeadlineExceeded { .. } | CompileError::BudgetExhausted { .. } => {
                    ExitCode::from(3)
                }
                _ => ExitCode::FAILURE,
            };
        }
    };
    if opts.lint != LintLevel::Allow {
        let report = lint_program(program, &sched, machine, &strategy, pipeline);
        eprint!("{report}");
        if report.fails_at(opts.lint) {
            eprintln!("ursac: lint failed at level '{}'", opts.lint);
            return ExitCode::from(2);
        }
    }
    for unit in &sched.units {
        if let Some(report) = unit.compiled.fallback.as_ref().filter(|r| r.degraded()) {
            eprintln!(
                "ursac: warning: unit at block {} degraded — {report}",
                unit.trace.blocks[0]
            );
        }
    }
    let label_of = |b: usize| program.blocks[b].label.as_str();
    println!("# machine: {machine}");
    println!(
        "# whole program: {} units, {} ops, {} memory ops, {} spill ops, \
         {} total schedule cycles",
        sched.units.len(),
        sched.op_count(),
        sched.memory_traffic(),
        sched.spill_ops(),
        sched.schedule_length()
    );
    for unit in &sched.units {
        let blocks: Vec<&str> = unit.trace.blocks.iter().map(|&b| label_of(b)).collect();
        let exits: Vec<&str> = unit.exits.iter().map(|&b| label_of(b)).collect();
        let next = match unit.fallthrough {
            Some(t) => label_of(t),
            None => "return",
        };
        println!(
            "\n# unit [{}]: {} cycles, {} ops, exits [{}], then {next}",
            blocks.join(", "),
            unit.compiled.stats.schedule_length,
            unit.compiled.stats.ops,
            exits.join(", "),
        );
        print!("{}", unit.compiled.vliw);
    }
    if opts.run {
        let memory = seeded_memory(program, 64, 1);
        match run_program(&sched, machine, &memory, &HashMap::new(), 1_000_000) {
            Ok(result) => {
                println!(
                    "\n# simulated {} cycles, {} ops, {} unit runs",
                    result.cycles, result.ops_executed, result.unit_runs
                );
                // Show only the program's own cells the run changed (the
                // boundary area is compiler scratch).
                let mut cells: Vec<_> = result
                    .memory
                    .iter()
                    .filter(|&(sym, idx, value)| {
                        sym.index() < program.symbols.len() && memory.load(sym, idx) != value
                    })
                    .collect();
                cells.sort();
                for (sym, idx, value) in cells {
                    let name = program
                        .symbols
                        .get(sym.index())
                        .cloned()
                        .unwrap_or_else(|| format!("{sym:?}"));
                    println!("# {name}[{idx}] = {value}");
                }
            }
            Err(e) => {
                eprintln!("ursac: simulation fault: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ursac: {msg}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ursac: cannot read {}: {e}", opts.input);
            return ExitCode::from(2);
        }
    };
    let mut program = match parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ursac: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(factor) = opts.unroll {
        let Some(block) = find_self_loop(&program) else {
            eprintln!("ursac: --unroll given but the program has no self-loop");
            return ExitCode::FAILURE;
        };
        program = match unroll_self_loop(&program, block, factor) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ursac: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let machine = match build_machine(&opts) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("ursac: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Compile the hottest block (the self-loop body if present, else the
    // entry block).
    let block = find_self_loop(&program).unwrap_or(0);
    let trace = Trace::single(block);
    let ddg = DependenceDag::build(&program, &trace);

    if opts.dot {
        print!("{}", to_dot(&ddg, "trace"));
        return ExitCode::SUCCESS;
    }
    if opts.measure_only {
        let mut ctx = AllocCtx::new(ddg, &machine);
        let m = measure(&mut ctx, MeasureOptions::default());
        println!("machine: {machine}");
        println!("critical path: {} cycles", ctx.critical_path());
        for rm in &m.resources {
            println!("{}", rm.requirement);
        }
        return ExitCode::SUCCESS;
    }

    let mut config = UrsaConfig::default();
    if let Some(n) = opts.max_iterations {
        config.max_iterations = n;
    }
    let strategy = match opts.strategy.as_str() {
        "ursa" => CompileStrategy::Ursa(config),
        "postpass" => CompileStrategy::Postpass,
        "prepass" => CompileStrategy::Prepass,
        "gh" | "goodman-hsu" => CompileStrategy::GoodmanHsu,
        other => {
            eprintln!("ursac: unknown strategy '{other}'");
            return ExitCode::from(2);
        }
    };
    let pipeline = PipelineOptions {
        validate: opts.validate,
        no_fallback: opts.no_fallback,
        lint: opts.lint,
        bounds: opts.bounds,
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        max_steps: opts.max_steps,
        // An armed fault plan may inject a synthetic panic; isolate it
        // at the trace boundary so it surfaces as a typed error.
        isolate: opts.chaos_seed.is_some(),
        ..PipelineOptions::default()
    };
    if let Some(seed) = opts.chaos_seed {
        let plan = ursa::core::FaultPlan::from_seed(seed);
        eprintln!("ursac: chaos: armed fault plan {plan} (seed {seed})");
        ursa::core::fault::arm(plan);
        // An injected panic is caught at the trace boundary and
        // reported as a typed error; silence the default hook so the
        // isolated unwind does not spray a backtrace banner first.
        std::panic::set_hook(Box::new(|_| {}));
    }
    // Multi-block programs go through the whole-program driver unless a
    // single-trace view was requested; `--whole-program` forces it even
    // for single-block inputs.
    if (opts.whole_program || program.blocks.len() > 1)
        && opts.unroll.is_none()
        && !opts.dot_annotated
    {
        return compile_whole_program(&program, &machine, strategy, &pipeline, &opts);
    }
    let compiled = match try_compile_with(&program, &trace, &machine, strategy.clone(), &pipeline) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ursac: {e}");
            return match e {
                CompileError::DeadlineExceeded { .. } | CompileError::BudgetExhausted { .. } => {
                    ExitCode::from(3)
                }
                _ => ExitCode::FAILURE,
            };
        }
    };
    if opts.dot_annotated {
        // Annotate the trace DAG with pressure hotspots and any lint
        // findings (lint always runs for this view, at least at warn).
        let report = lint_compiled(&program, &trace, &machine, &strategy, &compiled);
        let mut anns = Vec::new();
        let mut ctx = AllocCtx::new(ddg.clone(), &machine);
        let m = measure(&mut ctx, MeasureOptions::default());
        let kills = m.kills.clone();
        for rm in &m.resources {
            if rm.requirement.excess() == 0 {
                continue;
            }
            if let Some(set) = find_excessive(&mut ctx, rm, &kills) {
                for n in set.chains.iter().flatten() {
                    anns.push(DotAnnotation {
                        node: *n,
                        color: "gold".to_string(),
                        note: format!("excessive {}", rm.requirement.resource),
                    });
                }
            }
        }
        for d in &report.diagnostics {
            let color = match d.severity() {
                Severity::Error => "lightcoral",
                Severity::Warning => "khaki",
                Severity::Note => "lightblue",
            };
            for n in &d.nodes {
                anns.push(DotAnnotation {
                    node: *n,
                    color: color.to_string(),
                    note: format!("{} {}", d.code.as_str(), d.code.name()),
                });
            }
        }
        print!("{}", to_dot_annotated(&ddg, "trace", &anns));
        return ExitCode::SUCCESS;
    }
    if opts.lint != LintLevel::Allow {
        let report =
            lint_compiled_opts(&program, &trace, &machine, &strategy, &compiled, &pipeline);
        eprint!("{report}");
        if report.fails_at(opts.lint) {
            eprintln!("ursac: lint failed at level '{}'", opts.lint);
            return ExitCode::from(2);
        }
    }
    if let Some(report) = compiled.fallback.as_ref().filter(|r| r.degraded()) {
        eprintln!("ursac: warning: degraded — {report}");
    }
    println!("# machine: {machine}");
    println!(
        "# {} cycles, {} ops, {} memory ops, {} spill ops, overflow {}",
        compiled.stats.schedule_length,
        compiled.stats.ops,
        compiled.stats.memory_traffic,
        compiled.stats.spill_stores + compiled.stats.spill_loads,
        compiled.stats.reg_overflow
    );
    print!("{}", compiled.vliw);

    if opts.run {
        let exec_machine = if compiled.vliw.num_regs > machine.registers() {
            machine.with_registers(compiled.vliw.num_regs)
        } else {
            machine.clone()
        };
        let memory = seeded_memory(&program, 64, 1);
        match run_vliw(&compiled.vliw, &exec_machine, &memory, &HashMap::new()) {
            Ok(result) => {
                println!(
                    "\n# simulated {} cycles, {} ops",
                    result.cycles, result.ops_executed
                );
                // Show only the cells the program changed.
                let mut cells: Vec<_> = result
                    .memory
                    .iter()
                    .filter(|&(sym, idx, value)| memory.load(sym, idx) != value)
                    .collect();
                cells.sort();
                for (sym, idx, value) in cells {
                    let name = program
                        .symbols
                        .get(sym.index())
                        .cloned()
                        .unwrap_or_else(|| format!("{sym:?}"));
                    println!("# {name}[{idx}] = {value}");
                }
            }
            Err(e) => {
                eprintln!("ursac: simulation fault: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
