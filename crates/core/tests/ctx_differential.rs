//! Differential test for `AllocCtx`'s in-place analysis maintenance.
//!
//! The context keeps its reachability closure and longest-path levels
//! current across sequence-edge insertion, spill insertion and
//! `CtxTxn` rollback without rebuilding them (DESIGN.md §6a). Here
//! seeded random interleavings of those mutations run on the paper's
//! kernels and on random blocks, and after every mutation both
//! analyses must equal a from-scratch rebuild of the current DAG.
//! Reading the levels for the check materializes them, so a mutation
//! that forgot to invalidate them would leave a stale value behind for
//! the next check to catch.

use ursa_core::{AllocCtx, CtxTxn};
use ursa_graph::dag::NodeId;
use ursa_graph::reach::Reachability;
use ursa_ir::ddg::{DependenceDag, NodeKind};
use ursa_ir::program::Program;
use ursa_machine::Machine;
use ursa_rng::Rng;
use ursa_workloads::kernels::kernel_suite;
use ursa_workloads::random::{random_block, RandomShape};

/// Mutations applied to each DAG.
const STEPS: usize = 40;

fn assert_matches_rebuild(ctx: &AllocCtx<'_>, what: &str) {
    assert!(
        *ctx.reach() == Reachability::of(ctx.ddg().dag()),
        "{what}: maintained reachability differs from a rebuild"
    );
    assert_eq!(
        *ctx.levels(),
        ctx.scratch_levels(),
        "{what}: maintained levels differ from a rebuild"
    );
}

/// A random pair that adding as a sequence edge would not close a
/// cycle, preferring independent pairs (which actually move the
/// closure) over already-ordered ones.
fn random_edge(ctx: &AllocCtx<'_>, rng: &mut Rng) -> Option<(NodeId, NodeId)> {
    let n = ctx.ddg().dag().node_count();
    let mut fallback = None;
    for _ in 0..32 {
        let a = ctx.ddg().dag().node(rng.gen_range(0..n));
        let b = ctx.ddg().dag().node(rng.gen_range(0..n));
        if ctx.would_cycle(a, b) {
            continue;
        }
        if ctx.reach().independent(a, b) {
            return Some((a, b));
        }
        fallback = Some((a, b));
    }
    fallback
}

/// A random value together with a nonempty subset of its rewirable
/// uses.
fn random_spill(ctx: &AllocCtx<'_>, rng: &mut Rng) -> Option<(NodeId, Vec<NodeId>)> {
    let ddg = ctx.ddg();
    let candidates: Vec<(NodeId, Vec<NodeId>)> = ddg
        .value_nodes()
        .map(|v| {
            let uses = ddg
                .uses_of(v)
                .iter()
                .copied()
                .filter(|&u| matches!(ddg.kind(u), NodeKind::Op { .. } | NodeKind::Branch { .. }))
                .collect::<Vec<_>>();
            (v, uses)
        })
        .filter(|(_, uses)| !uses.is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (v, mut uses) = rng.choose(&candidates).clone();
    rng.shuffle(&mut uses);
    uses.truncate(rng.gen_range(1..uses.len() + 1));
    Some((v, uses))
}

fn exercise(program: &Program, machine: &Machine, seed: u64, what: &str) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ctx = AllocCtx::new(DependenceDag::from_entry_block(program), machine);
    assert_matches_rebuild(&ctx, what);
    let mut spills = 0;
    for step in 0..STEPS {
        let label = format!("{what}, step {step}");
        match rng.gen_range(0..4u32) {
            0 | 1 => {
                let Some((v, uses)) = random_spill(&ctx, &mut rng) else {
                    continue;
                };
                let before = ctx.ddg().dag().node_count();
                let pair = ctx.insert_spill(v, &uses);
                spills += 1;
                assert_eq!(ctx.ddg().dag().node_count(), before + 2, "{label}");
                assert!(ctx.reach().reaches(pair.store, pair.load), "{label}");
                assert_matches_rebuild(&ctx, &format!("{label} (spill of {v})"));
            }
            2 => {
                let Some((a, b)) = random_edge(&ctx, &mut rng) else {
                    continue;
                };
                let added = ctx.add_sequence_edge(a, b);
                assert!(ctx.reach().reaches(a, b), "{label}");
                assert_matches_rebuild(&ctx, &format!("{label} (edge {a} -> {b}, added {added})"));
            }
            _ => {
                // A probe-shaped transaction: a few edges, an optional
                // critical-path read, then rollback.
                let fingerprint = ctx.ddg().dag().fingerprint();
                let reach = ctx.reach().clone();
                let levels = ctx.levels().clone();
                let mut txn = CtxTxn::begin(&ctx);
                for _ in 0..rng.gen_range(1..4u32) {
                    if let Some((a, b)) = random_edge(&ctx, &mut rng) {
                        txn.add_sequence_edge(&mut ctx, a, b);
                        assert_matches_rebuild(&ctx, &format!("{label} (txn edge {a} -> {b})"));
                    }
                }
                if rng.gen_bool(0.5) {
                    let _ = ctx.critical_path();
                }
                txn.rollback(&mut ctx);
                assert_eq!(ctx.ddg().dag().fingerprint(), fingerprint, "{label}");
                assert!(
                    *ctx.reach() == reach,
                    "{label}: rollback left the closure changed"
                );
                assert_eq!(
                    *ctx.levels(),
                    levels,
                    "{label}: rollback left the levels changed"
                );
                assert_matches_rebuild(&ctx, &format!("{label} (rollback)"));
            }
        }
    }
    assert!(spills > 0, "{what}: no spill was exercised");
}

#[test]
fn kernel_suite_mutations_match_rebuilds() {
    let machine = Machine::classic_vliw();
    for (i, kernel) in kernel_suite().iter().enumerate() {
        exercise(&kernel.program, &machine, 100 + i as u64, &kernel.name);
    }
}

#[test]
fn random_block_mutations_match_rebuilds() {
    // 40–100 ops put the node count on both sides of the 64-column
    // word boundary, so spill growth exercises both the append and the
    // re-layout path of `BitMatrix::grow`.
    let machine = Machine::homogeneous(4, 8);
    for seed in 0..8u64 {
        let program = random_block(
            seed,
            RandomShape {
                ops: 40 + 8 * seed as usize,
                seeds: 6,
                window: 12,
                store_pct: 15,
            },
        );
        exercise(&program, &machine, seed, &format!("random block {seed}"));
    }
}
