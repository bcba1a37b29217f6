//! Spill patching of a fixed schedule — the *postpass* discipline.
//!
//! "If instruction scheduling is performed before register allocation
//! then any spill code that is introduced must be incorporated into the
//! existing schedule" (paper §1). This module does exactly that: it
//! replays a schedule produced without register constraints, and
//! whenever the register file overflows it weaves stores and reloads
//! into the instruction stream, stretching the schedule. The same
//! machinery serves as URSA's emergency fallback for residual excess
//! (paper §2 assigns leftover overflows to the assignment phase).

use crate::error::CompileError;
use crate::schedule::{node_class, node_latency, Schedule};
use crate::vliw::{MachineOp, SlotOp, VliwProgram};
use std::collections::{BTreeSet, HashMap};
use ursa_graph::dag::NodeId;
use ursa_ir::ddg::{DependenceDag, NodeKind};
use ursa_ir::instr::Instr;
use ursa_ir::value::{MemRef, Operand, SymbolId, VirtualReg};
use ursa_machine::{FuClass, Machine, OpKind};

/// Spill activity of a patch run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PatchStats {
    /// Stores inserted.
    pub stores: usize,
    /// Reloads inserted.
    pub loads: usize,
}

/// Word-by-word emitter with per-unit busy tracking (non-pipelined).
struct Emitter<'m> {
    machine: &'m Machine,
    words: Vec<Vec<MachineOp>>,
    unit_busy: HashMap<FuClass, Vec<u64>>,
    end: u64,
}

impl<'m> Emitter<'m> {
    fn new(machine: &'m Machine) -> Self {
        Emitter {
            machine,
            words: Vec::new(),
            unit_busy: machine
                .fu_classes()
                .iter()
                .map(|&(c, k)| (c, vec![0u64; k as usize]))
                .collect(),
            end: 0,
        }
    }

    /// Issues `op` at the earliest cycle ≥ `earliest` with a free unit
    /// of `class`; returns the issue cycle. The unit stays occupied for
    /// `occ` cycles; the schedule drains until `t + lat`.
    fn issue(
        &mut self,
        earliest: u64,
        class: FuClass,
        lat: u64,
        occ: u64,
        op: SlotOp,
    ) -> Result<u64, CompileError> {
        let units = self
            .unit_busy
            .get_mut(&class)
            .filter(|u| !u.is_empty())
            .ok_or(CompileError::MissingUnit { class })?;
        let (idx, t) = units
            .iter()
            .enumerate()
            .map(|(i, &busy)| (i, busy.max(earliest)))
            .min_by_key(|&(i, t)| (t, i))
            .expect("class has at least one unit");
        units[idx] = t + occ;
        while self.words.len() <= t as usize {
            self.words.push(Vec::new());
        }
        self.words[t as usize].push(MachineOp {
            op,
            fu: (class, idx as u32),
        });
        self.end = self.end.max(t + lat);
        Ok(t)
    }
}

/// Per-value location during patching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    Reg(u32),
    Mem,
}

/// Replays `schedule`, assigning physical registers on the fly and
/// inserting spill code wherever the file overflows; panics on any
/// [`try_patch_spills`] error.
///
/// # Panics
///
/// Panics if the machine has fewer registers than the widest single
/// instruction needs (operands of one op must be simultaneously
/// resident — 3 registers always suffice for three-address code), or if
/// more live-in values exist than registers.
pub fn patch_spills(
    ddg: &DependenceDag,
    schedule: &Schedule,
    machine: &Machine,
) -> (VliwProgram, PatchStats) {
    try_patch_spills(ddg, schedule, machine).unwrap_or_else(|e| panic!("patch_spills: {e}"))
}

/// Replays `schedule`, assigning physical registers on the fly and
/// inserting spill code wherever the file overflows. This is the
/// always-applicable last rung of the degradation ladder (paper §4.3):
/// it only fails on machines that cannot execute the program at all.
///
/// # Errors
///
/// [`CompileError::RegisterOverflow`] when more live-in values exist
/// than registers, [`CompileError::FileTooSmall`] when the file cannot
/// hold the operands of a single instruction, and
/// [`CompileError::MissingUnit`] when the machine lacks a needed unit
/// class (including memory units for the spill code itself).
pub fn try_patch_spills(
    ddg: &DependenceDag,
    schedule: &Schedule,
    machine: &Machine,
) -> Result<(VliwProgram, PatchStats), CompileError> {
    let regs = machine.registers();
    let exit = ddg.exit();
    let mut stats = PatchStats::default();

    // Extend the symbol table with the patch spill area.
    let mut symbols = ddg.symbols().to_vec();
    let spill_sym = SymbolId(symbols.len() as u32);
    symbols.push("__patch_spill".to_string());
    let mut next_slot: i64 = 0;

    // Remaining reader counts and ordered reader positions per value.
    let ordered: Vec<NodeId> = {
        let mut v: Vec<NodeId> = schedule.ops().iter().map(|o| o.node).collect();
        v.sort_by_key(|&n| (schedule.start_of(n).expect("scheduled"), n));
        v
    };
    let position: HashMap<NodeId, usize> =
        ordered.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut remaining_reads: HashMap<VirtualReg, usize> = HashMap::new();
    let mut reader_positions: HashMap<VirtualReg, Vec<usize>> = HashMap::new();
    for v in ddg.value_nodes() {
        let reg = ddg.value_def(v).expect("value node");
        let mut positions: Vec<usize> = Vec::new();
        let mut reads = 0usize;
        for &u in ddg.uses_of(v) {
            if u == exit {
                continue;
            }
            let Some(&pos) = position.get(&u) else {
                continue;
            };
            // An instruction may read the same value several times
            // (e.g. `mul v0, v0`); each read is consumed separately and
            // contributes one position entry so next-use indexing by
            // remaining count stays aligned.
            let occurrences = match ddg.kind(u) {
                NodeKind::Op { instr, .. } => instr.uses().iter().filter(|&&r| r == reg).count(),
                _ => 1,
            };
            for _ in 0..occurrences {
                positions.push(pos);
            }
            reads += occurrences;
        }
        positions.sort_unstable();
        remaining_reads.insert(reg, reads);
        reader_positions.insert(reg, positions);
    }

    let mut emitter = Emitter::new(machine);
    let mut loc: HashMap<VirtualReg, Loc> = HashMap::new();
    let mut slot_of: HashMap<VirtualReg, i64> = HashMap::new();
    let mut owner: HashMap<u32, VirtualReg> = HashMap::new();
    let mut free: BTreeSet<u32> = (0..regs).collect();
    let mut avail: HashMap<VirtualReg, u64> = HashMap::new();
    let mut mem_avail: HashMap<VirtualReg, u64> = HashMap::new();
    let mut live_out_regs: Vec<(u32, VirtualReg)> = Vec::new();
    let mut live_in: Vec<(u32, VirtualReg)> = Vec::new();
    let live_out_set: BTreeSet<VirtualReg> = ddg
        .value_nodes()
        .filter(|&v| ddg.is_live_out(v))
        .map(|v| ddg.value_def(v).expect("value node"))
        .collect();

    // Live-in values occupy registers from the start.
    let live_in_count = ddg
        .value_nodes()
        .filter(|&v| matches!(ddg.kind(v), NodeKind::LiveIn { .. }))
        .count();
    if live_in_count > regs as usize {
        return Err(CompileError::RegisterOverflow {
            needed: live_in_count as u32,
            available: regs,
        });
    }
    for v in ddg.value_nodes() {
        if let NodeKind::LiveIn { reg } = ddg.kind(v) {
            let phys = *free.iter().next().expect("live-in count checked above");
            free.remove(&phys);
            owner.insert(phys, *reg);
            loc.insert(*reg, Loc::Reg(phys));
            avail.insert(*reg, 0);
            live_in.push((phys, *reg));
        }
    }

    let mut last_issue: u64 = 0;
    // End cycle (issue + latency) of the latest branch issued so far;
    // stores and later branches may not issue before it.
    let mut last_branch_end: u64 = 0;
    // Registers of dead definitions, reusable once the write commits.
    let mut deferred_frees: Vec<(u64, u32)> = Vec::new();
    // Memory commit times: a load must not issue before the last store
    // to its cell has committed (the machine model commits stores after
    // their latency; loads observe committed memory only). Keyed by
    // `(symbol, Some(constant index))`, with `None` standing for any
    // store through a register index. Matters when the DAG itself
    // contains spill stores and reloads (allocation-transformed DAGs):
    // replay re-times every op, so the schedule's original spacing
    // cannot be relied on.
    let mut mem_commit: HashMap<(SymbolId, Option<i64>), u64> = HashMap::new();

    // Helper closures become explicit functions to appease the borrow
    // checker; state is threaded through a macro-free struct instead.
    for &node in &ordered {
        let class = node_class(ddg, machine, node).expect("scheduled ops are real");
        let lat = node_latency(ddg, machine, node);
        let (mut instr, is_branch_cond) = match ddg.kind(node) {
            NodeKind::Op { instr, .. } => (Some(instr.clone()), None),
            NodeKind::Branch {
                cond, exit_on_true, ..
            } => (None, Some((*cond, *exit_on_true))),
            other => unreachable!("{other:?} in schedule"),
        };
        let reads: Vec<VirtualReg> = match (&instr, is_branch_cond) {
            (Some(i), _) => i.uses(),
            (None, Some((Operand::Reg(r), _))) => vec![r],
            _ => Vec::new(),
        };

        // 1. Reload any spilled operand.
        let mut earliest = last_issue;
        let mut floor = last_issue;
        for &r in &reads {
            if loc.get(&r) == Some(&Loc::Mem) {
                // Need a register for the reload.
                let phys = take_register(
                    &mut floor,
                    &mut deferred_frees,
                    &mut free,
                    &mut owner,
                    &mut loc,
                    &mut slot_of,
                    &mut avail,
                    &mut mem_avail,
                    &mut emitter,
                    &mut stats,
                    &remaining_reads,
                    &reader_positions,
                    &live_out_set,
                    spill_sym,
                    &mut next_slot,
                    &reads,
                    last_issue,
                )?;
                let slot = slot_of[&r];
                let ready = mem_avail
                    .get(&r)
                    .copied()
                    .unwrap_or(0)
                    .max(last_issue)
                    .max(floor);
                let t = emitter.issue(
                    ready,
                    machine.class_of(OpKind::Load),
                    machine.latency_of(OpKind::Load),
                    machine.occupancy_of(OpKind::Load),
                    SlotOp::Instr(Instr::Load {
                        dst: VirtualReg(phys),
                        mem: MemRef::new(spill_sym, slot),
                    }),
                )?;
                stats.loads += 1;
                avail.insert(r, t + machine.latency_of(OpKind::Load));
                loc.insert(r, Loc::Reg(phys));
                owner.insert(phys, r);
            }
        }
        // 2. Operand availability and binding snapshot (before any
        //    operand register is recycled).
        for &r in &reads {
            earliest = earliest.max(avail.get(&r).copied().unwrap_or(0));
        }
        // Ops with observable effects must resolve every earlier
        // branch first: a firing branch cancels later words, but an op
        // sharing the branch's word still executes — a store there
        // would land on the wrong path. Branches themselves are spaced
        // the same way so exit ordinals stay in word-major trace order.
        if is_branch_cond.is_some() || instr.as_ref().and_then(Instr::mem_write).is_some() {
            earliest = earliest.max(last_branch_end);
        }
        if let Some(m) = instr.as_ref().and_then(Instr::mem_read) {
            let ready = match m.index {
                Operand::Imm(k) => mem_commit
                    .get(&(m.base, Some(k)))
                    .copied()
                    .unwrap_or(0)
                    .max(mem_commit.get(&(m.base, None)).copied().unwrap_or(0)),
                // Unknown index: wait for every store to the symbol.
                Operand::Reg(_) => mem_commit
                    .iter()
                    .filter(|&(&(s, _), _)| s == m.base)
                    .map(|(_, &t)| t)
                    .max()
                    .unwrap_or(0),
            };
            earliest = earliest.max(ready);
        }
        let mut binding: HashMap<VirtualReg, u32> = reads
            .iter()
            .map(|&r| match loc[&r] {
                Loc::Reg(p) => (r, p),
                Loc::Mem => unreachable!("operand {r} was reloaded"),
            })
            .collect();
        // 3. Operands dying at this instruction release their registers
        //    now — reads happen at issue, the definition writes only
        //    after the latency, so same-cycle reuse is safe.
        let mut distinct_reads: Vec<VirtualReg> = reads.clone();
        distinct_reads.sort_unstable();
        distinct_reads.dedup();
        for &r in &distinct_reads {
            let occurrences = reads.iter().filter(|&&x| x == r).count();
            let remaining = remaining_reads.get_mut(&r).expect("tracked value");
            *remaining -= occurrences;
            if *remaining == 0 && !live_out_set.contains(&r) {
                if let Some(Loc::Reg(p)) = loc.get(&r) {
                    owner.remove(p);
                    free.insert(*p);
                }
                loc.remove(&r);
            }
        }
        // 4. A register for the definition (surviving operands of this
        //    instruction are protected from eviction).
        let def = instr.as_ref().and_then(Instr::def);
        let def_phys = match def {
            Some(_) => Some(take_register(
                &mut floor,
                &mut deferred_frees,
                &mut free,
                &mut owner,
                &mut loc,
                &mut slot_of,
                &mut avail,
                &mut mem_avail,
                &mut emitter,
                &mut stats,
                &remaining_reads,
                &reader_positions,
                &live_out_set,
                spill_sym,
                &mut next_slot,
                &reads,
                last_issue,
            )?),
            None => None,
        };
        if let (Some(d), Some(p)) = (def, def_phys) {
            binding.insert(d, p);
        }
        let slot_op = match (&mut instr, is_branch_cond) {
            (Some(i), _) => {
                i.map_registers(|r| VirtualReg(binding[&r]));
                SlotOp::Instr(i.clone())
            }
            (None, Some((cond, exit_on_true))) => SlotOp::Branch {
                cond: match cond {
                    Operand::Reg(r) => Operand::Reg(VirtualReg(binding[&r])),
                    imm => imm,
                },
                exit_on_true,
            },
            _ => unreachable!(),
        };
        let occ = crate::schedule::node_occupancy(ddg, machine, node);
        let t = emitter.issue(earliest.max(floor), class, lat, occ, slot_op)?;
        last_issue = t;
        if is_branch_cond.is_some() {
            last_branch_end = last_branch_end.max(t + lat);
        }
        if let Some(m) = instr.as_ref().and_then(Instr::mem_write) {
            let key = match m.index {
                Operand::Imm(k) => (m.base, Some(k)),
                Operand::Reg(_) => (m.base, None),
            };
            let commit = mem_commit.entry(key).or_insert(0);
            *commit = (*commit).max(t + lat);
        }

        // 5. The definition becomes live.
        if let (Some(d), Some(p)) = (def, def_phys) {
            loc.insert(d, Loc::Reg(p));
            owner.insert(p, d);
            avail.insert(d, t + lat);
            if live_out_set.contains(&d) {
                live_out_regs.push((p, d));
            }
            // Dead definitions release their register once their write
            // has committed (freeing at issue would let the next owner's
            // value be clobbered by the in-flight write).
            if remaining_reads.get(&d) == Some(&0) && !live_out_set.contains(&d) {
                owner.remove(&p);
                deferred_frees.push((t + lat, p));
                loc.remove(&d);
            }
        }
        // Reclaim dead-definition registers whose writes have committed
        // by now: any future op issues at > last_issue is not guaranteed,
        // so only reclaim strictly-past commits.
        deferred_frees.retain(|&(usable_at, p)| {
            if usable_at <= last_issue {
                free.insert(p);
                false
            } else {
                true
            }
        });
    }

    // Elide dead spill stores. A live-out value is never freed, so it
    // can be chosen as an eviction victim after its last read — the
    // emitted store then feeds no reload. The spill area is
    // compiler-private memory, so an unreloaded store is unobservable.
    let reloaded: BTreeSet<i64> = emitter
        .words
        .iter()
        .flatten()
        .filter_map(|op| match &op.op {
            SlotOp::Instr(Instr::Load { mem, .. }) if mem.base == spill_sym => match mem.index {
                Operand::Imm(slot) => Some(slot),
                Operand::Reg(_) => None,
            },
            _ => None,
        })
        .collect();
    for word in &mut emitter.words {
        word.retain(|op| {
            let keep = match &op.op {
                SlotOp::Instr(Instr::Store { mem, .. }) if mem.base == spill_sym => {
                    match mem.index {
                        Operand::Imm(slot) => reloaded.contains(&slot),
                        Operand::Reg(_) => true,
                    }
                }
                _ => true,
            };
            if !keep {
                stats.stores -= 1;
            }
            keep
        });
    }

    // Pad to the drain point.
    while (emitter.words.len() as u64) < emitter.end {
        emitter.words.push(Vec::new());
    }
    Ok((
        VliwProgram {
            words: emitter.words,
            symbols,
            num_regs: regs,
            live_in,
        },
        stats,
    ))
}

/// Obtains a free physical register, spilling the bound value with the
/// farthest next use if necessary. Values needed by the current
/// instruction (`current_reads`) are never victimized.
#[allow(clippy::too_many_arguments)]
fn take_register(
    floor: &mut u64,
    deferred_frees: &mut Vec<(u64, u32)>,
    free: &mut BTreeSet<u32>,
    owner: &mut HashMap<u32, VirtualReg>,
    loc: &mut HashMap<VirtualReg, Loc>,
    slot_of: &mut HashMap<VirtualReg, i64>,
    avail: &mut HashMap<VirtualReg, u64>,
    mem_avail: &mut HashMap<VirtualReg, u64>,
    emitter: &mut Emitter<'_>,
    stats: &mut PatchStats,
    remaining_reads: &HashMap<VirtualReg, usize>,
    reader_positions: &HashMap<VirtualReg, Vec<usize>>,
    live_out_set: &BTreeSet<VirtualReg>,
    spill_sym: SymbolId,
    next_slot: &mut i64,
    current_reads: &[VirtualReg],
    last_issue: u64,
) -> Result<u32, CompileError> {
    if let Some(&p) = free.iter().next() {
        free.remove(&p);
        return Ok(p);
    }
    // Reclaim a dead definition's register whose write has committed.
    if let Some(pos) = deferred_frees
        .iter()
        .position(|&(usable_at, _)| usable_at <= last_issue)
    {
        return Ok(deferred_frees.swap_remove(pos).1);
    }
    // Victim: farthest next use (live-out counts as infinitely far only
    // after every other candidate).
    let Some(victim_reg) = owner
        .iter()
        .filter(|&(_, v)| !current_reads.contains(v))
        .max_by_key(|&(p, v)| {
            let next = reader_positions
                .get(v)
                .map(|ps| {
                    let done = ps.len() - remaining_reads.get(v).copied().unwrap_or(0);
                    ps.get(done).copied().unwrap_or(usize::MAX)
                })
                .unwrap_or(usize::MAX);
            (next, live_out_set.contains(v), std::cmp::Reverse(*p))
        })
        .map(|(&p, _)| p)
    else {
        // Every owned register is an operand; fall back to a register
        // in limbo (dead write still in flight) and make the consumer
        // wait for the commit.
        let Some((usable_at, p)) = deferred_frees
            .iter()
            .copied()
            .min_by_key(|&(usable_at, p)| (usable_at, p))
        else {
            return Err(CompileError::FileTooSmall {
                stage: "spill patching",
                registers: emitter.machine.registers(),
            });
        };
        deferred_frees.retain(|&(_, q)| q != p);
        *floor = (*floor).max(usable_at);
        return Ok(p);
    };
    let victim_val = owner.remove(&victim_reg).expect("owned");

    // Clean values (already in their slot) skip the store.
    if let std::collections::hash_map::Entry::Vacant(entry) = slot_of.entry(victim_val) {
        let slot = *next_slot;
        *next_slot += 1;
        entry.insert(slot);
        let ready = avail.get(&victim_val).copied().unwrap_or(0).max(last_issue);
        let machine = emitter.machine;
        let t = emitter.issue(
            ready,
            machine.class_of(OpKind::Store),
            machine.latency_of(OpKind::Store),
            machine.occupancy_of(OpKind::Store),
            SlotOp::Instr(Instr::Store {
                mem: MemRef::new(spill_sym, slot),
                src: Operand::Reg(VirtualReg(victim_reg)),
            }),
        )?;
        stats.stores += 1;
        mem_avail.insert(victim_val, t + machine.latency_of(OpKind::Store));
        // The store reads the evicted register at cycle `t`; whoever
        // takes the register next must not commit a write there before
        // that read. Any op issues with latency >= 1, so issuing at or
        // after `t` is sufficient.
        *floor = (*floor).max(t);
    }
    loc.insert(victim_val, Loc::Mem);
    Ok(victim_reg)
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
    fn no_spills_with_ample_registers() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(4, 16);
        let s = list_schedule(&ddg, &machine);
        let (prog, stats) = patch_spills(&ddg, &s, &machine);
        assert_eq!(stats.stores + stats.loads, 0);
        assert_eq!(prog.op_count(), 11);
    }

    #[test]
    fn tight_registers_force_spills_and_stretch() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(4, 3);
        let s = list_schedule(&ddg, &machine);
        let unconstrained_len = s.length();
        let (prog, stats) = patch_spills(&ddg, &s, &machine);
        assert!(stats.stores > 0, "pressure 5 with 3 regs must spill");
        assert!(stats.loads >= stats.stores);
        assert_eq!(prog.op_count(), 11 + stats.stores + stats.loads);
        assert!(
            prog.cycle_count() as u64 > unconstrained_len,
            "spill code stretches the postpass schedule"
        );
        // All registers physical.
        for word in &prog.words {
            for op in word {
                if let SlotOp::Instr(i) = &op.op {
                    for r in i.uses().into_iter().chain(i.def()) {
                        assert!(r.0 < 3, "register {r} out of file");
                    }
                }
            }
        }
    }

    #[test]
    fn spill_area_symbol_is_added() {
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(4, 3);
        let s = list_schedule(&ddg, &machine);
        let (prog, _) = patch_spills(&ddg, &s, &machine);
        assert!(prog.symbols.iter().any(|s| s == "__patch_spill"));
    }

    #[test]
    fn clean_values_reload_without_second_store() {
        // One value used twice with huge pressure in between: the second
        // eviction of the same value must not emit a second store.
        let src = "\
            v0 = load a[0]\n\
            v1 = load a[1]\n\
            v2 = load a[2]\n\
            v3 = add v0, v1\n\
            v4 = add v3, v2\n\
            v5 = add v4, v0\n\
            store b[0], v5\n";
        let ddg = ddg_of(src);
        let machine = Machine::homogeneous(2, 2);
        let s = list_schedule(&ddg, &machine);
        let (_, stats) = patch_spills(&ddg, &s, &machine);
        assert!(stats.loads >= stats.stores, "reload-only evictions happen");
    }

    #[test]
    fn three_registers_always_suffice() {
        // Three-address code needs at most two operands + one result
        // simultaneously resident, so the patcher succeeds with 3.
        let ddg = ddg_of(FIG2);
        let machine = Machine::homogeneous(2, 3);
        let s = list_schedule(&ddg, &machine);
        let (prog, stats) = patch_spills(&ddg, &s, &machine);
        assert!(stats.stores > 0);
        assert_eq!(prog.op_count(), 11 + stats.stores + stats.loads);
    }

    #[test]
    fn reload_waits_for_store_commit() {
        // A load from a cell must not issue before the store to that
        // cell has committed (stores commit after their latency). The
        // replay re-times ops, so this spacing must be re-derived — it
        // is what keeps allocation-inserted spill/reload pairs correct
        // when a transformed DAG reaches the patch rung.
        use ursa_machine::{LatencyModel, MachineBuilder};
        let src = "\
            v0 = const 7\n\
            store a[0], v0\n\
            v1 = load a[0]\n\
            v2 = add v1, 1\n\
            store b[0], v2\n";
        let ddg = ddg_of(src);
        let machine = MachineBuilder::new("slow-store")
            .fu(FuClass::Universal, 4)
            .registers(8)
            .latencies(LatencyModel {
                store: 4,
                ..LatencyModel::unit()
            })
            .build();
        let s = list_schedule(&ddg, &machine);
        let (prog, _) = patch_spills(&ddg, &s, &machine);
        let a = prog.symbols.iter().position(|s| s == "a").unwrap() as u32;
        let mut store_cycle = None;
        let mut load_cycle = None;
        for (cycle, word) in prog.words.iter().enumerate() {
            for op in word {
                if let SlotOp::Instr(i) = &op.op {
                    if let Some(m) = i.mem_write() {
                        if m.base == SymbolId(a) {
                            store_cycle = Some(cycle as u64);
                        }
                    }
                    if let Some(m) = i.mem_read() {
                        if m.base == SymbolId(a) {
                            load_cycle = Some(cycle as u64);
                        }
                    }
                }
            }
        }
        let (ts, tl) = (store_cycle.unwrap(), load_cycle.unwrap());
        assert!(
            tl >= ts + 4,
            "load at {tl} observes the store at {ts} before its commit at {}",
            ts + 4
        );
    }

    #[test]
    fn dead_spill_stores_are_elided() {
        // A live-out value is never freed, so after its last in-trace
        // read it can become an eviction victim — which used to emit a
        // store to a spill cell nothing reloads. Those stores are
        // unobservable (the spill area is compiler-private) and must
        // not survive to the emitted words.
        use ursa_ir::Trace;
        let src = "\
            block entry:\n\
            v0 = const 0\n\
            jmp head\n\
            block head @ 24:\n\
            v1 = load a[v0]\n\
            v2 = mul v1, 3\n\
            store b[v0], v2\n\
            v0 = add v0, 1\n\
            v3 = cmplt v0, 24\n\
            br v3, head, done\n\
            block done:\n\
            ret\n";
        let program = parse(src).unwrap();
        let ddg = DependenceDag::build(&program, &Trace::single(1));
        let machine = Machine::homogeneous(2, 3);
        let s = list_schedule(&ddg, &machine);
        let (prog, stats) = patch_spills(&ddg, &s, &machine);
        let spill = prog
            .symbols
            .iter()
            .position(|s| s == "__patch_spill")
            .map(|i| SymbolId(i as u32))
            .expect("tight file spills");
        let mut stored = BTreeSet::new();
        let mut loaded = BTreeSet::new();
        let mut stores = 0usize;
        let mut loads = 0usize;
        for word in &prog.words {
            for op in word {
                let SlotOp::Instr(i) = &op.op else { continue };
                if let Some(m) = i.mem_write() {
                    if m.base == spill {
                        if let Operand::Imm(slot) = m.index {
                            stored.insert(slot);
                        }
                        stores += 1;
                    }
                }
                if let Some(m) = i.mem_read() {
                    if m.base == spill {
                        if let Operand::Imm(slot) = m.index {
                            loaded.insert(slot);
                        }
                        loads += 1;
                    }
                }
            }
        }
        assert!(
            stored.is_subset(&loaded),
            "unreloaded spill store survived: {stored:?} vs {loaded:?}"
        );
        // Stats track the emitted words, not the pre-elision count.
        assert_eq!(stats.stores, stores);
        assert_eq!(stats.loads, loads);
    }

    #[test]
    fn two_registers_work_when_operands_die() {
        // A pure accumulation chain kills one operand at each step.
        let ddg = ddg_of(
            "v0 = const 1\nv1 = add v0, 1\nv2 = add v1, 1\nv3 = add v2, 1\nstore a[0], v3\n",
        );
        let machine = Machine::homogeneous(1, 2);
        let s = list_schedule(&ddg, &machine);
        let (prog, stats) = patch_spills(&ddg, &s, &machine);
        assert_eq!(stats.stores + stats.loads, 0);
        assert_eq!(prog.op_count(), 5);
    }
}
