//! Stage invariant checking for the fail-safe pipeline.
//!
//! After each pipeline stage a small set of structural invariants must
//! hold: the dependence DAG stays acyclic and anchored between its
//! entry/exit pseudo nodes, no original operation is lost or duplicated
//! (modulo spill code, which is explicitly synthesized), schedules
//! respect dependences and unit capacities, and the emitted wide words
//! stay within the register file and never read a register before its
//! write commits.
//!
//! The checks are cheap enough for `debug_assertions` builds to run
//! them always; release builds run them when requested via
//! [`crate::PipelineOptions::validate`].
//! A violation is reported as a typed [`ValidationError`] (wrapped in
//! [`crate::CompileError::Validation`]) — never a panic.

use crate::schedule::Schedule;
use crate::vliw::{SlotOp, VliwProgram};
use std::collections::HashMap;
use std::fmt;
use ursa_ir::ddg::{DependenceDag, NodeKind};
use ursa_ir::value::{Operand, VirtualReg};
use ursa_machine::{Machine, OpKind};

/// The pipeline stage after which a check ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// After dependence-DAG construction.
    Ddg,
    /// After URSA's allocation (DAG transformation) phase.
    Allocation,
    /// After list/IPS scheduling.
    Schedule,
    /// After register assignment / code emission.
    Emit,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Ddg => "ddg",
            Stage::Allocation => "allocation",
            Stage::Schedule => "schedule",
            Stage::Emit => "emit",
        };
        f.write_str(s)
    }
}

/// A violated stage invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// The dependence DAG has a cycle.
    CyclicDag {
        /// Stage after which the cycle appeared.
        stage: Stage,
    },
    /// The DAG is not anchored on exactly the entry root and exit leaf.
    Unanchored {
        /// Stage after which anchoring broke.
        stage: Stage,
        /// What exactly is wrong.
        detail: String,
    },
    /// Original operations were lost or duplicated by a stage.
    OpsNotConserved {
        /// Stage after which the count changed.
        stage: Stage,
        /// Operations before the stage (spill code excluded).
        expected: usize,
        /// Operations after the stage (spill code excluded).
        actual: usize,
    },
    /// The schedule violates a dependence, capacity, or coverage rule.
    BadSchedule {
        /// The first violation, as reported by [`Schedule::validate`].
        detail: String,
    },
    /// Emitted code touches a register outside the declared file.
    RegisterOutOfFile {
        /// Issue cycle of the offending operation.
        cycle: u64,
        /// The register index.
        reg: u32,
        /// Registers the code declared.
        file: u32,
    },
    /// Emitted code reads a register before any write to it commits.
    ReadBeforeWrite {
        /// Issue cycle of the reading operation.
        cycle: u64,
        /// The register read.
        reg: u32,
    },
    /// Emitted code issues on a unit that is still busy, or on a unit
    /// index the machine does not have.
    BadUnitPlacement {
        /// Issue cycle of the offending operation.
        cycle: u64,
        /// `class#index` of the unit.
        unit: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::CyclicDag { stage } => {
                write!(f, "[{stage}] dependence DAG is cyclic")
            }
            ValidationError::Unanchored { stage, detail } => {
                write!(f, "[{stage}] DAG anchoring broken: {detail}")
            }
            ValidationError::OpsNotConserved {
                stage,
                expected,
                actual,
            } => write!(
                f,
                "[{stage}] operation count changed: {expected} original ops \
                 expected, {actual} present"
            ),
            ValidationError::BadSchedule { detail } => {
                write!(f, "[schedule] {detail}")
            }
            ValidationError::RegisterOutOfFile { cycle, reg, file } => {
                write!(
                    f,
                    "[emit] r{reg} outside the {file}-register file at cycle {cycle}"
                )
            }
            ValidationError::ReadBeforeWrite { cycle, reg } => {
                write!(
                    f,
                    "[emit] r{reg} read at cycle {cycle} before its write commits"
                )
            }
            ValidationError::BadUnitPlacement { cycle, unit } => {
                write!(f, "[emit] unit {unit} misused at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Counts the *original* (non-synthesized) operations of a DAG: real
/// instructions and branches that came from the program, excluding
/// spill code inserted by transformations and compensation memory
/// operations against compiler-private (`__`-prefixed) areas — those
/// are placed into real blocks by the whole-program driver but are not
/// program operations.
pub fn real_op_count(ddg: &DependenceDag) -> usize {
    ddg.fu_nodes()
        .filter(|&n| match ddg.kind(n) {
            NodeKind::Op { instr, block } => {
                *block != usize::MAX
                    && !instr
                        .mem_read()
                        .or_else(|| instr.mem_write())
                        .is_some_and(|m| is_spill_symbol(ddg.symbol_name(m.base)))
            }
            NodeKind::Branch { .. } => true,
            _ => false,
        })
        .count()
}

/// Checks DAG acyclicity and entry/exit anchoring.
pub fn check_dag(stage: Stage, ddg: &DependenceDag) -> Result<(), ValidationError> {
    if !ddg.dag().is_acyclic() {
        return Err(ValidationError::CyclicDag { stage });
    }
    let roots = ddg.dag().roots();
    if roots != vec![ddg.entry()] {
        return Err(ValidationError::Unanchored {
            stage,
            detail: format!("roots are {roots:?}, expected [{}]", ddg.entry()),
        });
    }
    let leaves = ddg.dag().leaves();
    if leaves != vec![ddg.exit()] {
        return Err(ValidationError::Unanchored {
            stage,
            detail: format!("leaves are {leaves:?}, expected [{}]", ddg.exit()),
        });
    }
    Ok(())
}

/// Checks that a transformed DAG still carries exactly the original
/// operations (spill code excluded).
pub fn check_conservation(
    stage: Stage,
    expected_real_ops: usize,
    ddg: &DependenceDag,
) -> Result<(), ValidationError> {
    let actual = real_op_count(ddg);
    if actual != expected_real_ops {
        return Err(ValidationError::OpsNotConserved {
            stage,
            expected: expected_real_ops,
            actual,
        });
    }
    Ok(())
}

/// Checks a schedule for coverage, dependence and capacity violations.
pub fn check_schedule(
    ddg: &DependenceDag,
    schedule: &Schedule,
    machine: &Machine,
) -> Result<(), ValidationError> {
    schedule
        .validate(ddg, machine)
        .map_err(|detail| ValidationError::BadSchedule { detail })
}

/// The reserved name prefix of compiler-private spill areas.
///
/// The parser rejects user symbols starting with this prefix, so for
/// parsed programs prefix matching in [`is_spill_symbol`] is sound.
/// Programs constructed programmatically (`ProgramBuilder`) can still
/// smuggle colliding symbols in; `ursa-lint` reports those as `U0106
/// spill-symbol-collision` because every such memory operation is
/// silently exempted from the conservation checks here.
pub const SPILL_PREFIX: &str = "__";

/// `true` for symbols naming compiler-private spill areas (`__spill`,
/// `__patch_spill`, `__prepass_spill`, `__boundary`). Memory operations
/// against them are spill or cross-unit compensation code, not program
/// operations.
pub fn is_spill_symbol(name: &str) -> bool {
    name.starts_with(SPILL_PREFIX)
}

/// Checks emitted VLIW code: register-file bounds, dependence-respecting
/// word placement (no read before the producing write commits, no unit
/// double-booking) and conservation of the original operations.
///
/// Bounds are checked against the file the code itself declares
/// (`vliw.num_regs`) — Goodman–Hsu may honestly declare a wider file
/// than the machine's and reports the difference as `reg_overflow`.
pub fn check_words(
    vliw: &VliwProgram,
    machine: &Machine,
    expected_real_ops: usize,
) -> Result<(), ValidationError> {
    let file = vliw.num_regs;
    // Earliest cycle at which each register holds a committed value.
    let mut written_at: HashMap<u32, u64> =
        vliw.live_in.iter().map(|&(phys, _)| (phys, 0)).collect();
    let mut unit_busy: HashMap<(ursa_machine::FuClass, u32), u64> = HashMap::new();
    let mut real_ops = 0usize;

    for (c, word) in vliw.words.iter().enumerate() {
        let cycle = c as u64;
        for op in word {
            let (kind, reads, def): (OpKind, Vec<VirtualReg>, Option<VirtualReg>) = match &op.op {
                SlotOp::Instr(i) => (OpKind::of_instr(i), i.uses(), i.def()),
                SlotOp::Branch { cond, .. } => (
                    OpKind::Branch,
                    match cond {
                        Operand::Reg(r) => vec![*r],
                        _ => Vec::new(),
                    },
                    None,
                ),
            };
            // Is this op spill code?
            let spill = match &op.op {
                SlotOp::Instr(i) => i.mem_read().or_else(|| i.mem_write()).is_some_and(|m| {
                    vliw.symbols
                        .get(m.base.index())
                        .is_some_and(|s| is_spill_symbol(s))
                }),
                SlotOp::Branch { .. } => false,
            };
            if !spill {
                real_ops += 1;
            }
            // Unit placement.
            let (class, index) = op.fu;
            if index >= machine.fu_count(class) {
                return Err(ValidationError::BadUnitPlacement {
                    cycle,
                    unit: format!("{class}#{index} (machine has {})", machine.fu_count(class)),
                });
            }
            if let Some(&until) = unit_busy.get(&op.fu) {
                if until > cycle {
                    return Err(ValidationError::BadUnitPlacement {
                        cycle,
                        unit: format!("{class}#{index} busy until {until}"),
                    });
                }
            }
            unit_busy.insert(op.fu, cycle + machine.occupancy_of(kind));
            // Reads.
            for r in reads {
                if r.0 >= file {
                    return Err(ValidationError::RegisterOutOfFile {
                        cycle,
                        reg: r.0,
                        file,
                    });
                }
                match written_at.get(&r.0) {
                    Some(&ready) if ready <= cycle => {}
                    _ => {
                        return Err(ValidationError::ReadBeforeWrite { cycle, reg: r.0 });
                    }
                }
            }
            // Definition.
            if let Some(d) = def {
                if d.0 >= file {
                    return Err(ValidationError::RegisterOutOfFile {
                        cycle,
                        reg: d.0,
                        file,
                    });
                }
                let commit = cycle + machine.latency_of(kind);
                written_at
                    .entry(d.0)
                    .and_modify(|t| *t = (*t).min(commit))
                    .or_insert(commit);
            }
        }
    }
    if real_ops != expected_real_ops {
        return Err(ValidationError::OpsNotConserved {
            stage: Stage::Emit,
            expected: expected_real_ops,
            actual: real_ops,
        });
    }
    Ok(())
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

    fn fig2_ddg() -> DependenceDag {
        DependenceDag::from_entry_block(&parse(FIG2).unwrap())
    }

    #[test]
    fn clean_pipeline_passes_all_checks() {
        let ddg = fig2_ddg();
        let machine = Machine::homogeneous(3, 16);
        check_dag(Stage::Ddg, &ddg).unwrap();
        let real = real_op_count(&ddg);
        assert_eq!(real, 11);
        let s = list_schedule(&ddg, &machine);
        check_schedule(&ddg, &s, &machine).unwrap();
        let vliw = crate::assign::assign_registers(&ddg, &s, &machine).unwrap();
        check_words(&vliw, &machine, real).unwrap();
    }

    #[test]
    fn patched_code_conserves_original_ops() {
        let ddg = fig2_ddg();
        let machine = Machine::homogeneous(3, 3);
        let s = list_schedule(&ddg, &machine);
        let (vliw, stats) = crate::patch::patch_spills(&ddg, &s, &machine);
        assert!(stats.stores > 0, "pressure forces spills");
        check_words(&vliw, &machine, 11).unwrap();
    }

    #[test]
    fn register_out_of_file_detected() {
        let ddg = fig2_ddg();
        let machine = Machine::homogeneous(3, 16);
        let s = list_schedule(&ddg, &machine);
        let mut vliw = crate::assign::assign_registers(&ddg, &s, &machine).unwrap();
        vliw.num_regs = 2; // shrink the declared file under the code
        assert!(matches!(
            check_words(&vliw, &machine, 11),
            Err(ValidationError::RegisterOutOfFile { .. })
        ));
    }

    #[test]
    fn lost_op_detected() {
        let ddg = fig2_ddg();
        let machine = Machine::homogeneous(3, 16);
        let s = list_schedule(&ddg, &machine);
        let mut vliw = crate::assign::assign_registers(&ddg, &s, &machine).unwrap();
        // Drop the last word's ops: conservation must trip (or a read
        // of the dropped value, depending on placement).
        for word in vliw.words.iter_mut().rev() {
            if !word.is_empty() {
                word.clear();
                break;
            }
        }
        assert!(check_words(&vliw, &machine, 11).is_err());
    }

    #[test]
    fn spill_symbols_recognized() {
        assert!(is_spill_symbol("__spill"));
        assert!(is_spill_symbol("__patch_spill"));
        assert!(is_spill_symbol("__prepass_spill"));
        assert!(!is_spill_symbol("a"));
    }
}
