//! Differential test for the word-parallel `CanReuse` row kernel.
//!
//! Every relation builder reads its rows from `ReuseRows`, which ANDs a
//! closure row with a member mask (DESIGN.md §6a). The reference is the
//! pair predicate `can_reuse_reg` / `can_reuse_fu` probed over every
//! member pair in member order. Here the two must agree row for row, in
//! content and order, for registers and every functional-unit class, on
//! the paper's kernels, on random blocks, and on contexts grown by
//! spill insertion across the 64-node word boundary. The measurement's
//! staged decomposition, including a row dropped by the `poison-row`
//! fault, must equal the predicate-driven decomposition.

use ursa_core::fault::{self, FaultKind, FaultPlan, FaultSite};
use ursa_core::kill::{select_kills, KillMap, KillMode};
use ursa_core::measure::{
    can_reuse_fu, can_reuse_reg, measure_metered, measure_resource, requirement_only,
    MeasureOptions, ReuseRows,
};
use ursa_core::{AllocCtx, ResourceKind};
use ursa_graph::chains::{decompose_prioritized, max_antichain, max_antichain_rows};
use ursa_graph::dag::NodeId;
use ursa_graph::meter::Unmetered;
use ursa_ir::ddg::{DependenceDag, NodeKind};
use ursa_ir::program::Program;
use ursa_machine::Machine;
use ursa_rng::Rng;
use ursa_workloads::kernels::kernel_suite;
use ursa_workloads::random::{random_block, RandomShape};

fn related(
    ctx: &AllocCtx<'_>,
    kills: &KillMap,
    resource: ResourceKind,
    a: NodeId,
    b: NodeId,
) -> bool {
    match resource {
        ResourceKind::Fu(_) => can_reuse_fu(ctx, a, b),
        ResourceKind::Registers => can_reuse_reg(ctx, kills, a, b),
    }
}

/// The reference rows: a pair loop over the members in member order.
fn predicate_rows(ctx: &AllocCtx<'_>, kills: &KillMap, resource: ResourceKind) -> Vec<Vec<usize>> {
    let nodes = ctx.resource_nodes(resource);
    nodes
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            (0..nodes.len())
                .filter(|&j| j != i && related(ctx, kills, resource, a, nodes[j]))
                .collect()
        })
        .collect()
}

/// Kernel rows must equal the reference rows for every resource of the
/// machine, and the consumers built on them must agree with their
/// predicate-driven forms.
fn assert_rows_match(ctx: &mut AllocCtx<'_>, what: &str) {
    let kills = select_kills(ctx, KillMode::MinCover);
    let mut nonempty = 0;
    for resource in ResourceKind::all_for(ctx.machine()) {
        let nodes = ctx.resource_nodes(resource);
        let reference = predicate_rows(ctx, &kills, resource);
        let reuse = ReuseRows::new(ctx, &kills, resource, &nodes);
        for (i, want) in reference.iter().enumerate() {
            let mut got = vec![usize::MAX]; // rows append
            reuse.row(i, &mut got);
            assert_eq!(
                &got[1..],
                &want[..],
                "{what}: {resource} row {i} ({}) differs from the pair predicate",
                nodes[i]
            );
            nonempty += usize::from(!want.is_empty());
        }
        let matcher = reuse.matcher();
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(
                matcher.row(i),
                &want[..],
                "{what}: {resource} matcher row {i}"
            );
        }
        assert_eq!(
            max_antichain_rows(&nodes, |i, out| reuse.row(i, out)),
            max_antichain(&nodes, |a, b| related(ctx, &kills, resource, a, b)),
            "{what}: {resource} antichain"
        );
        let k = nodes.len() as u32;
        let width = k - ursa_graph::matching::hopcroft_karp(k as usize, k as usize, &reference)
            .len() as u32;
        assert_eq!(
            requirement_only(ctx, &kills, resource),
            width,
            "{what}: {resource} requirement count"
        );
        assert_staged_matches(ctx, &kills, resource, None, what);
    }
    assert!(nonempty > 0, "{what}: every row was empty");
}

/// The staged decomposition of `measure_resource` (or of a measurement
/// whose `poisoned` row was dropped) must equal the predicate-driven
/// decomposition chain for chain.
fn assert_staged_matches(
    ctx: &mut AllocCtx<'_>,
    kills: &KillMap,
    resource: ResourceKind,
    poisoned: Option<NodeId>,
    what: &str,
) {
    let nodes = ctx.resource_nodes(resource);
    let measured = match poisoned {
        None => measure_resource(ctx, kills, resource, MeasureOptions::default()).decomposition,
        Some(_) => {
            let m = measure_metered(ctx, MeasureOptions::default(), &Unmetered);
            assert_eq!(&m.kills, kills);
            m.of(resource).expect("measured").decomposition.clone()
        }
    };
    let hammocks = ctx.hammocks().clone();
    let reference = decompose_prioritized(
        &nodes,
        &mut |a, b| Some(a) != poisoned && related(ctx, kills, resource, a, b),
        |a, b| hammocks.edge_priority(a, b),
    );
    assert_eq!(
        measured.chains(),
        reference.chains(),
        "{what}: {resource} staged decomposition (poisoned {poisoned:?})"
    );
}

/// A random value with a nonempty subset of its rewirable uses.
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

fn ctx_of<'m>(program: &Program, machine: &'m Machine) -> AllocCtx<'m> {
    AllocCtx::new(DependenceDag::from_entry_block(program), machine)
}

#[test]
fn kernel_suite_rows_match_pair_predicates() {
    for machine in [Machine::classic_vliw(), Machine::homogeneous(4, 16)] {
        for kernel in kernel_suite() {
            let mut ctx = ctx_of(&kernel.program, &machine);
            assert_rows_match(&mut ctx, &kernel.name);
        }
    }
}

#[test]
fn random_block_rows_match_pair_predicates() {
    let machine = Machine::classic_vliw();
    for seed in 0..8u64 {
        let program = random_block(
            seed,
            RandomShape {
                ops: 24 + 12 * seed as usize,
                seeds: 6,
                window: 4 + 2 * seed as usize,
                store_pct: 15,
            },
        );
        let mut ctx = ctx_of(&program, &machine);
        assert_rows_match(&mut ctx, &format!("random block {seed}"));
    }
}

/// Spill insertion grows the closure in place; rows read from the grown
/// words must still match, on both sides of the 64-node boundary.
#[test]
fn spill_grown_rows_match_pair_predicates() {
    let machine = Machine::classic_vliw();
    for seed in 0..4u64 {
        let program = random_block(
            seed,
            RandomShape {
                ops: 36 + 2 * seed as usize,
                seeds: 5,
                window: 10,
                store_pct: 10,
            },
        );
        let mut ctx = ctx_of(&program, &machine);
        let mut rng = Rng::seed_from_u64(seed);
        let start = ctx.ddg().dag().node_count();
        assert!(start < 64, "seed {seed} starts at {start} nodes");
        while ctx.ddg().dag().node_count() < 80 {
            let (v, uses) = random_spill(&ctx, &mut rng).expect("a spillable value");
            ctx.insert_spill(v, &uses);
            let n = ctx.ddg().dag().node_count();
            assert_rows_match(
                &mut ctx,
                &format!("seed {seed}, {n} nodes after spilling {v}"),
            );
        }
    }
}

/// The `poison-row` fault drops one member's row from the first
/// measured resource; the kernel path must drop exactly that row.
#[test]
fn poisoned_row_matches_predicate_decomposition() {
    let machine = Machine::classic_vliw();
    for kernel in kernel_suite() {
        for payload in [0u32, 3, 17] {
            let mut ctx = ctx_of(&kernel.program, &machine);
            let kills = select_kills(&ctx, KillMode::MinCover);
            let first = ResourceKind::all_for(ctx.machine())[0];
            let nodes = ctx.resource_nodes(first);
            let poisoned = nodes[payload as usize % nodes.len()];
            fault::arm(FaultPlan {
                site: FaultSite::Measure,
                kind: FaultKind::PoisonRow,
                payload,
            });
            let what = format!("{} payload {payload}", kernel.name);
            assert_staged_matches(&mut ctx, &kills, first, Some(poisoned), &what);
            assert_eq!(fault::disarm(), None, "{what}: the plan tripped");
        }
    }
}
