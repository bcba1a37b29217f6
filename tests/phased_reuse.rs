//! The degradation ladder's Phased rung may record a failed Integrated
//! rung's outcome instead of re-running, when the driver flags that
//! Integrated run as `phased_equivalent` (DESIGN.md §7). These tests
//! hold the flag to a real `Strategy::Phased` allocation, pin the
//! ladder report the reuse must keep, and check that a fault plan
//! tripped during the Integrated rung forces the real Phased run.

use ursa::core::fault::{self, FaultKind, FaultPlan, FaultSite};
use ursa::core::{allocate, AllocationOutcome, Strategy, UrsaConfig};
use ursa::ir::ddg::DependenceDag;
use ursa::ir::program::Program;
use ursa::ir::Trace;
use ursa::machine::Machine;
use ursa::sched::{try_compile_with, CompileStrategy, FallbackRung, PipelineOptions, RungFailure};
use ursa_workloads::kernels::kernel_suite;
use ursa_workloads::random::{random_block, RandomShape};

fn config(strategy: Strategy) -> UrsaConfig {
    UrsaConfig {
        strategy,
        ..UrsaConfig::default()
    }
}

fn machines() -> [(&'static str, Machine); 4] {
    [
        ("(4,16)", Machine::homogeneous(4, 16)),
        ("(4,8)", Machine::homogeneous(4, 8)),
        ("(2,8)", Machine::homogeneous(2, 8)),
        ("classic", Machine::classic_vliw()),
    ]
}

/// Allocates `program` with Integrated; when the outcome is flagged
/// Phased-equivalent, a real Phased allocation must match it exactly.
/// Returns the flag.
fn check_flag(program: &Program, machine: &Machine, what: &str) -> bool {
    let ddg = DependenceDag::from_entry_block(program);
    let integrated = allocate(ddg.clone(), machine, &config(Strategy::Integrated));
    if !integrated.phased_equivalent {
        return false;
    }
    let phased = allocate(ddg, machine, &config(Strategy::Phased));
    assert_same(&integrated, &phased, what);
    true
}

fn assert_same(integrated: &AllocationOutcome, phased: &AllocationOutcome, what: &str) {
    let fp = |o: &AllocationOutcome| o.ddg.dag().fingerprint();
    assert_eq!(
        format!("{:?}", integrated.steps),
        format!("{:?}", phased.steps),
        "{what}: steps differ"
    );
    assert_eq!(fp(integrated), fp(phased), "{what}: DAGs differ");
    assert_eq!(
        integrated.final_measurement, phased.final_measurement,
        "{what}: final measurements differ"
    );
    assert_eq!(
        integrated.residual_excess, phased.residual_excess,
        "{what}: residual excess differs"
    );
    assert_eq!(
        integrated.hit_iteration_limit, phased.hit_iteration_limit,
        "{what}: iteration-limit flags differ"
    );
    assert!(
        integrated.same_allocation(phased),
        "{what}: outcomes differ"
    );
}

#[test]
fn flagged_integrated_runs_match_real_phased_runs() {
    let mut flags = [0usize; 2];
    for (name, machine) in machines() {
        for kernel in kernel_suite() {
            let what = format!("{}@{name}", kernel.name);
            flags[usize::from(check_flag(&kernel.program, &machine, &what))] += 1;
        }
    }
    let tight = Machine::homogeneous(2, 6);
    for seed in 0..32u64 {
        let program = random_block(
            seed,
            RandomShape {
                ops: 16 + seed as usize,
                seeds: 4,
                window: 3 + (seed % 8) as usize,
                store_pct: 20,
            },
        );
        let what = format!("random block {seed}");
        flags[usize::from(check_flag(&program, &tight, &what))] += 1;
    }
    assert!(
        flags[0] > 0 && flags[1] > 0,
        "both flag values must occur (unflagged {}, flagged {})",
        flags[0],
        flags[1]
    );
}

/// dct8 at T8's machine: Integrated and Phased both stop at residual
/// excess 1, and spill-only produces the code — with or without the
/// Phased rung re-running.
#[test]
fn dct8_ladder_report_is_unchanged() {
    let dct8 = kernel_suite()
        .into_iter()
        .find(|k| k.name == "dct8")
        .expect("dct8 is in the suite");
    let compiled = try_compile_with(
        &dct8.program,
        &Trace::entry(),
        &Machine::homogeneous(4, 16),
        CompileStrategy::Ursa(UrsaConfig::default()),
        &PipelineOptions::default(),
    )
    .expect("dct8 compiles");
    let report = compiled.fallback.expect("URSA strategies report a rung");
    let residual_one = RungFailure::ResidualExcess { excess: 1 };
    assert_eq!(
        report.attempts,
        vec![
            (FallbackRung::Allocation(Strategy::Integrated), residual_one),
            (FallbackRung::Allocation(Strategy::Phased), residual_one),
        ]
    );
    assert_eq!(report.rung, FallbackRung::Allocation(Strategy::SpillOnly));
    assert_eq!(compiled.stats.schedule_length, 211);
}

/// horner12 on the classic machine with FU sequentialization refused
/// once: the refusal lands in the Integrated rung, which then fails
/// although its run is flagged Phased-equivalent. Phased must run for
/// real (the plan is spent) and produce the code.
#[test]
fn tripped_fault_forces_the_real_phased_run() {
    let horner = kernel_suite()
        .into_iter()
        .find(|k| k.name == "horner12")
        .expect("horner12 is in the suite");
    let machine = Machine::classic_vliw();
    let plan = FaultPlan {
        site: FaultSite::FuSeq,
        kind: FaultKind::Refuse,
        payload: 0,
    };

    // The premise: the faulted Integrated run fails, flagged.
    fault::arm(plan);
    let faulted = allocate(
        DependenceDag::from_entry_block(&horner.program),
        &machine,
        &config(Strategy::Integrated),
    );
    assert_eq!(fault::disarm(), None, "the plan tripped");
    assert!(faulted.phased_equivalent && faulted.residual_excess > 0);

    fault::arm(plan);
    let compiled = try_compile_with(
        &horner.program,
        &Trace::entry(),
        &machine,
        CompileStrategy::Ursa(UrsaConfig::default()),
        &PipelineOptions::default(),
    )
    .expect("horner12 compiles");
    let _ = fault::disarm();
    let report = compiled.fallback.expect("URSA strategies report a rung");
    assert_eq!(
        report.attempts,
        vec![(
            FallbackRung::Allocation(Strategy::Integrated),
            RungFailure::ResidualExcess {
                excess: faulted.residual_excess
            }
        )]
    );
    assert_eq!(report.rung, FallbackRung::Allocation(Strategy::Phased));
}
