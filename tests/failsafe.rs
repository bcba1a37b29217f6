//! Fail-safe pipeline guarantees: typed errors instead of panics, the
//! degradation ladder and its `FallbackReport`, and invariant breaks
//! surfacing as `CompileError`.

use std::collections::HashMap;
use ursa::core::{Strategy, UrsaConfig};
use ursa::ir::parser::parse;
use ursa::ir::Trace;
use ursa::machine::Machine;
use ursa::sched::{
    try_compile, try_compile_with, validate, CompileError, CompileStrategy, FallbackRung,
    PipelineOptions, RungFailure, SlotOp,
};
use ursa::vm::equiv::{check_equivalence, seeded_memory};
use ursa_rng::Rng;
use ursa_workloads::kernels::kernel_suite;
use ursa_workloads::random::{random_block, RandomShape};

/// Fig. 2 of the paper — register width 5, so tight files force the
/// allocator to work.
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
    v10 = add v8, v9\n\
    store b[0], v10\n";

const TWO_BLOCK: &str = "\
    block entry:\n\
    v0 = load a[0]\n\
    v1 = mul v0, 2\n\
    br v1, hot, cold\n\
    block hot @ 0.9:\n\
    store b[0], v1\n\
    ret\n\
    block cold @ 0.1:\n\
    store b[1], v0\n\
    ret\n";

/// The stress harness's program shape (keep in sync with
/// `crates/bench/src/bin/stress.rs`), so stress seeds can be promoted
/// into regressions here verbatim.
fn stress_shape(seed: u64) -> RandomShape {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5745_4544);
    RandomShape {
        ops: rng.gen_range(8usize..96),
        seeds: rng.gen_range(1usize..8),
        window: rng.gen_range(2usize..24),
        store_pct: rng.gen_range(0u32..40),
    }
}

#[test]
fn prepass_refuses_multi_block_traces() {
    // Regression: this used to be an `assert_eq!` panic inside compile.
    let p = parse(TWO_BLOCK).unwrap();
    let machine = Machine::homogeneous(2, 8);
    let err = try_compile(
        &p,
        &Trace { blocks: vec![0, 1] },
        &machine,
        CompileStrategy::Prepass,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CompileError::UnsupportedTrace {
            strategy: "prepass",
            blocks: 2,
        }
    ));
    // The refusal must route the user to the path that does handle
    // multi-block inputs.
    assert!(
        err.to_string().contains("whole-program driver"),
        "refusal should point at compile_program: {err}"
    );
}

#[test]
fn empty_program_compiles_to_nothing() {
    let p = parse("").unwrap();
    let machine = Machine::homogeneous(2, 4);
    for strategy in [
        CompileStrategy::Ursa(UrsaConfig::default()),
        CompileStrategy::Postpass,
        CompileStrategy::Prepass,
        CompileStrategy::GoodmanHsu,
    ] {
        let c = try_compile(&p, &Trace::single(0), &machine, strategy).unwrap();
        assert_eq!(c.stats.ops, 0);
    }
}

#[test]
fn out_of_range_trace_is_typed() {
    let p = parse(FIG2).unwrap();
    let machine = Machine::homogeneous(2, 8);
    let err = try_compile(&p, &Trace::single(3), &machine, CompileStrategy::Postpass).unwrap_err();
    assert!(matches!(
        err,
        CompileError::TraceOutOfRange {
            block: 3,
            blocks: 1
        }
    ));
}

#[test]
fn clean_compiles_record_their_own_rung() {
    let p = parse(FIG2).unwrap();
    let machine = Machine::homogeneous(3, 16);
    for strategy in [Strategy::Integrated, Strategy::Phased, Strategy::SpillOnly] {
        let config = UrsaConfig {
            strategy,
            ..UrsaConfig::default()
        };
        let c = try_compile(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(config),
        )
        .unwrap();
        let report = c.fallback.expect("ursa records a report");
        assert!(!report.degraded(), "{strategy:?} should fit 16 registers");
        assert_eq!(report.rung, FallbackRung::Allocation(strategy));
    }
}

#[test]
fn exhausted_budget_descends_to_postpass_patch() {
    // Budget 0 on a machine that needs reduction: every allocation rung
    // reports its iteration limit and the terminal patch rung delivers.
    let p = parse(FIG2).unwrap();
    let machine = Machine::homogeneous(4, 3);
    let config = UrsaConfig {
        max_iterations: 0,
        ..UrsaConfig::default()
    };
    let c = try_compile(
        &p,
        &Trace::single(0),
        &machine,
        CompileStrategy::Ursa(config),
    )
    .unwrap();
    let report = c.fallback.unwrap();
    assert_eq!(report.rung, FallbackRung::PostpassPatch);
    assert_eq!(
        report
            .attempts
            .iter()
            .map(|&(rung, _)| rung)
            .collect::<Vec<_>>(),
        vec![
            FallbackRung::Allocation(Strategy::Integrated),
            FallbackRung::Allocation(Strategy::SpillOnly),
        ],
        "ladder order"
    );
    for &(_, why) in &report.attempts {
        assert!(matches!(why, RungFailure::IterationLimit { iterations: 0 }));
    }
    // The delivered code still respects the file and computes Fig. 2.
    let memory = seeded_memory(&p, 64, 9);
    check_equivalence(&p, &c.vliw, &machine, &memory, &HashMap::new()).unwrap();
}

#[test]
fn residual_excess_descends_and_stays_correct() {
    // Promoted from the stress harness (seed 4 on vliw4r8): every
    // allocation rung converges but leaves residual excess, so the
    // patch rung compiles a spill-transformed DAG. Regression for the
    // patcher's memory-dependence retiming (a reload must wait for its
    // spill store to commit).
    let p = random_block(4, stress_shape(4));
    let machine = Machine::homogeneous(4, 8);
    let c = try_compile_with(
        &p,
        &Trace::single(0),
        &machine,
        CompileStrategy::Ursa(UrsaConfig::default()),
        &PipelineOptions {
            validate: true,
            no_fallback: false,
            ..Default::default()
        },
    )
    .unwrap();
    let report = c.fallback.unwrap();
    assert_eq!(report.rung, FallbackRung::PostpassPatch);
    assert!(report
        .attempts
        .iter()
        .all(|&(_, why)| matches!(why, RungFailure::ResidualExcess { .. })));
    let memory = seeded_memory(&p, 256, 4);
    check_equivalence(&p, &c.vliw, &machine, &memory, &HashMap::new()).unwrap();
}

#[test]
fn mid_ladder_rescue_by_spill_only() {
    // Found by seed search: on this input the integrated discipline
    // claims success but overflows at assignment (the Kill() heuristic
    // under-measures, paper §2), and the spill-only rung rescues the
    // compile without reaching the patch rung. The
    // triggering seed is re-searched whenever allocation decisions
    // legitimately shift (the incremental-measurement PR's spill
    // scoring heuristics retired the previous seed, 95 at 2 FUs/6
    // regs).
    let p = random_block(48, stress_shape(48));
    let machine = Machine::homogeneous(2, 7);
    let c = try_compile(
        &p,
        &Trace::single(0),
        &machine,
        CompileStrategy::Ursa(UrsaConfig::default()),
    )
    .unwrap();
    let report = c.fallback.unwrap();
    assert_eq!(report.rung, FallbackRung::Allocation(Strategy::SpillOnly));
    assert_eq!(report.attempts.len(), 1, "{report}");
    assert!(report
        .attempts
        .iter()
        .all(|&(_, why)| matches!(why, RungFailure::AssignOverflow { .. })));
    let memory = seeded_memory(&p, 256, 48);
    check_equivalence(&p, &c.vliw, &machine, &memory, &HashMap::new()).unwrap();
}

/// dct8 at T8's machine: Integrated stops at residual excess 1 and the
/// spill-only rung produces the code.
#[test]
fn dct8_ladder_report_is_pinned() {
    let dct8 = kernel_suite()
        .into_iter()
        .find(|k| k.name == "dct8")
        .expect("dct8 is in the suite");
    let c = try_compile(
        &dct8.program,
        &Trace::entry(),
        &Machine::homogeneous(4, 16),
        CompileStrategy::Ursa(UrsaConfig::default()),
    )
    .unwrap();
    let report = c.fallback.expect("ursa records a report");
    assert_eq!(
        report.attempts,
        vec![(
            FallbackRung::Allocation(Strategy::Integrated),
            RungFailure::ResidualExcess { excess: 1 }
        )]
    );
    assert_eq!(report.rung, FallbackRung::Allocation(Strategy::SpillOnly));
    assert_eq!(c.stats.schedule_length, 211);
}

/// The FU-first ladder keeps a Phased rung because it produces code:
/// at 4 FUs/16 registers these kernels fail FU-first and compile on
/// the Phased rung.
#[test]
fn fu_first_ladder_is_rescued_by_phased() {
    let machine = Machine::homogeneous(4, 16);
    let config = UrsaConfig {
        strategy: Strategy::PhasedFuFirst,
        ..UrsaConfig::default()
    };
    for name in ["matmul3", "stencil8", "hydro6"] {
        let kernel = kernel_suite()
            .into_iter()
            .find(|k| k.name == name)
            .expect("kernel is in the suite");
        let c = try_compile(
            &kernel.program,
            &Trace::entry(),
            &machine,
            CompileStrategy::Ursa(config),
        )
        .unwrap();
        let report = c.fallback.expect("ursa records a report");
        assert_eq!(
            report.rung,
            FallbackRung::Allocation(Strategy::Phased),
            "{name}: {report}"
        );
        assert_eq!(
            report
                .attempts
                .iter()
                .map(|&(rung, _)| rung)
                .collect::<Vec<_>>(),
            vec![FallbackRung::Allocation(Strategy::PhasedFuFirst)],
            "{name}"
        );
    }
}

#[test]
fn no_fallback_turns_exhaustion_into_budget_exhausted() {
    let p = parse(FIG2).unwrap();
    let machine = Machine::homogeneous(4, 3);
    let config = UrsaConfig {
        max_iterations: 0,
        ..UrsaConfig::default()
    };
    let err = try_compile_with(
        &p,
        &Trace::single(0),
        &machine,
        CompileStrategy::Ursa(config),
        &PipelineOptions {
            validate: false,
            no_fallback: true,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CompileError::BudgetExhausted { iterations: 0, .. }
    ));
}

#[test]
fn injected_invariant_break_is_a_typed_error() {
    // Corrupt a perfectly good compile the way a buggy stage would and
    // confirm the checker reports a typed CompileError, not a panic.
    let p = parse(FIG2).unwrap();
    let machine = Machine::homogeneous(3, 8);
    let c = try_compile(
        &p,
        &Trace::single(0),
        &machine,
        CompileStrategy::Ursa(UrsaConfig::default()),
    )
    .unwrap();
    let expected = c.stats.ops;

    // Break 1: an operation vanishes (conservation).
    let mut lost = c.vliw.clone();
    let word = lost.words.iter_mut().rev().find(|w| !w.is_empty()).unwrap();
    word.pop();
    let err = CompileError::from(validate::check_words(&lost, &machine, expected).unwrap_err());
    assert!(matches!(err, CompileError::Validation(_)), "{err}");

    // Break 2: a register outside the file (bounds).
    let mut out_of_file = c.vliw.clone();
    out_of_file.num_regs = 2;
    let err =
        CompileError::from(validate::check_words(&out_of_file, &machine, expected).unwrap_err());
    assert!(matches!(err, CompileError::Validation(_)), "{err}");
    assert!(err.to_string().contains("register"), "{err}");
}

#[test]
fn spilled_code_stays_inside_the_file() {
    // The ladder's delivered code respects the machine's register file
    // even when it had to spill hard.
    let p = parse(FIG2).unwrap();
    for regs in [3u32, 4] {
        let machine = Machine::homogeneous(4, regs);
        let c = try_compile(
            &p,
            &Trace::single(0),
            &machine,
            CompileStrategy::Ursa(UrsaConfig::default()),
        )
        .unwrap();
        for word in &c.vliw.words {
            for op in word {
                if let SlotOp::Instr(i) = &op.op {
                    for r in i.uses().into_iter().chain(i.def()) {
                        assert!(r.0 < regs, "{r} escaped the {regs}-register file");
                    }
                }
            }
        }
    }
}

#[test]
fn multi_cycle_latency_violation_is_a_bad_schedule() {
    // A schedule legal on a unit-latency machine packs dependent mul
    // chains back to back; rechecking it against the same FU shape with
    // classic multi-cycle latencies must trip the dependence check.
    let p = parse(FIG2).unwrap();
    let ddg = ursa::ir::ddg::DependenceDag::from_entry_block(&p);
    let unit = Machine::homogeneous(3, 16);
    let schedule = ursa::sched::list_schedule(&ddg, &unit);
    validate::check_schedule(&ddg, &schedule, &unit).unwrap();
    let slow = Machine::builder("slow-homogeneous")
        .fu(ursa::machine::FuClass::Universal, 3)
        .registers(16)
        .latencies(ursa::machine::LatencyModel::classic())
        .build();
    let err = validate::check_schedule(&ddg, &schedule, &slow).unwrap_err();
    assert!(
        matches!(err, ursa::sched::ValidationError::BadSchedule { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("before"), "{err}");
}

#[test]
fn register_file_bound_is_exact_at_the_cap() {
    // Index file-1 is the last legal register; index == file is the
    // first illegal one — the bound is exact, not off by one.
    use ursa::ir::instr::Instr;
    use ursa::ir::value::VirtualReg;
    use ursa::machine::FuClass;
    use ursa::sched::{MachineOp, VliwProgram};
    let machine = Machine::homogeneous(1, 4);
    let program_with_dst = |reg: u32| VliwProgram {
        words: vec![vec![MachineOp {
            op: SlotOp::Instr(Instr::Const {
                dst: VirtualReg(reg),
                value: 7,
            }),
            fu: (FuClass::Universal, 0),
        }]],
        symbols: Vec::new(),
        num_regs: machine.registers(),
        live_in: Vec::new(),
    };
    validate::check_words(&program_with_dst(3), &machine, 1).unwrap();
    let err = validate::check_words(&program_with_dst(4), &machine, 1).unwrap_err();
    assert!(
        matches!(
            err,
            ursa::sched::ValidationError::RegisterOutOfFile {
                reg: 4,
                file: 4,
                ..
            }
        ),
        "{err}"
    );
}
