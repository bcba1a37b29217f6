//! Measurement of resource requirements (paper §3).
//!
//! For each resource kind a `CanReuse` relation is built over the nodes
//! competing for it; the minimum chain decomposition of that relation
//! (computed by bipartite matching, with the paper's hammock-priority
//! staging) gives the worst-case requirement over *all* legal schedules.
//!
//! For functional units the bound is exact. For registers it inherits
//! the `Kill()` heuristic's approximation (Theorem 2): when a value has
//! several mutually independent maximal uses, the single chosen killer
//! may not be the one some schedule runs last, and the measurement can
//! be off by a small amount in either direction — the paper's §2 hands
//! any leftover excess to the assignment phase.

use crate::ctx::AllocCtx;
use crate::fault::{self, FaultKind, FaultSite};
use crate::kill::{select_kills_metered, KillMap, KillMode};
use crate::resource::{Requirement, ResourceKind};
use std::fmt;
use ursa_graph::bitset::BitSet;
use ursa_graph::chains::{decompose_prioritized_metered, ChainDecomposition};
use ursa_graph::dag::NodeId;
use ursa_graph::matching::IncrementalMatcher;
use ursa_graph::meter::{Unmetered, WorkMeter};
use ursa_graph::reach::Reachability;

/// Consumes any fault armed for the measurement site, translating it
/// into either an immediate action (panic, budget starvation) or a
/// poisoned-row index the adjacency builders apply once.
fn trip_measure_fault(meter: &dyn WorkMeter) -> Option<u32> {
    let plan = fault::trip(FaultSite::Measure)?;
    match plan.kind {
        FaultKind::Panic => fault::trip_panic(FaultSite::Measure),
        FaultKind::PoisonRow => Some(plan.payload),
        _ => {
            meter.starve();
            None
        }
    }
}

/// Options controlling measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasureOptions {
    /// How `Kill()` is selected for register measurement.
    pub kill_mode: KillMode,
    /// Use the paper's hammock-nesting-prioritized matching so the
    /// decomposition is minimal for every nested hammock (§3.1). When
    /// `false`, a plain maximum matching is used (ablation T7).
    pub plain_matching: bool,
}

/// The measured requirement and decomposition for one resource.
#[derive(Clone, Debug)]
pub struct ResourceMeasure {
    /// Requirement vs. capacity.
    pub requirement: Requirement,
    /// The minimum chain decomposition that witnessed the requirement.
    pub decomposition: ChainDecomposition,
}

/// Requirements for every resource of the machine.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Per-resource measures, in [`ResourceKind::all_for`] order.
    pub resources: Vec<ResourceMeasure>,
    /// The kill map used for register measurement (reused by
    /// transformations).
    pub kills: KillMap,
}

impl Measurement {
    /// Sum of excesses across resources (0 = everything fits).
    pub fn total_excess(&self) -> u32 {
        self.resources.iter().map(|r| r.requirement.excess()).sum()
    }

    /// `true` when no legal schedule can exceed any capacity.
    pub fn fits(&self) -> bool {
        self.resources.iter().all(|r| r.requirement.fits())
    }

    /// The measure for one resource kind.
    pub fn of(&self, kind: ResourceKind) -> Option<&ResourceMeasure> {
        self.resources
            .iter()
            .find(|r| r.requirement.resource == kind)
    }

    /// A compact copy of the requirements (no decompositions).
    pub fn summary(&self) -> MeasurementSummary {
        MeasurementSummary {
            requirements: self.resources.iter().map(|r| r.requirement).collect(),
        }
    }

    /// Cross-checks every staged decomposition against the plain
    /// Dilworth bound from [`requirement_only`]. Both are maximum
    /// matchings of the same `CanReuse` relation, so the chain counts
    /// must agree; each `(resource, staged chains, plain bound)` entry
    /// returned is a resource where the hammock-priority matcher lost
    /// minimality. `ursa-lint` reports nonempty results as `U0103
    /// non-minimal-chain-decomposition`.
    pub fn minimality_gaps(&self, ctx: &AllocCtx<'_>) -> Vec<(ResourceKind, usize, u32)> {
        self.resources
            .iter()
            .filter_map(|m| {
                let staged = m.decomposition.num_chains();
                let bound = requirement_only(ctx, &self.kills, m.requirement.resource);
                (staged as u32 != bound).then_some((m.requirement.resource, staged, bound))
            })
            .collect()
    }
}

/// Requirements only — cheap to store in reports.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MeasurementSummary {
    /// One entry per machine resource.
    pub requirements: Vec<Requirement>,
}

impl MeasurementSummary {
    /// `true` when every requirement is within its capacity.
    pub fn fits(&self, machine: &ursa_machine::Machine) -> bool {
        self.requirements
            .iter()
            .all(|r| r.required <= r.resource.capacity(machine))
    }

    /// The requirement for one resource kind.
    pub fn of(&self, kind: ResourceKind) -> Option<Requirement> {
        self.requirements
            .iter()
            .copied()
            .find(|r| r.resource == kind)
    }

    /// Sum of excesses across resources.
    pub fn total_excess(&self) -> u32 {
        self.requirements.iter().map(Requirement::excess).sum()
    }
}

impl fmt::Display for MeasurementSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.requirements.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// The register `CanReuse` relation (paper §3.2): `b` may take over
/// `a`'s register exactly when `b` is the chosen kill of `a`'s value or
/// a descendant of it. This pair predicate is the reference definition
/// (Reuse DAG construction, tests); relation builders read whole rows
/// from [`ReuseRows`].
pub fn can_reuse_reg(ctx: &AllocCtx<'_>, kills: &KillMap, a: NodeId, b: NodeId) -> bool {
    match kills.kill_of(a) {
        Some(k) => b == k || ctx.reach().reaches(k, b),
        None => false,
    }
}

/// The functional-unit `CanReuse` relation (paper §3.2): with
/// non-pipelined units, a dependent instruction can always reuse its
/// ancestor's unit. The reference predicate, like [`can_reuse_reg`].
pub fn can_reuse_fu(ctx: &AllocCtx<'_>, a: NodeId, b: NodeId) -> bool {
    ctx.reach().reaches(a, b)
}

/// Word-parallel `CanReuse` rows over one resource's competing nodes.
///
/// Every row is a row of the reachability closure masked to the
/// members: `desc(a)` for a functional unit, `{Kill(a)} ∪ desc(Kill(a))`
/// for a register (empty when `a`'s value has no kill). A row is read
/// as one AND per closure word, and its set bits are mapped to member
/// ranks, so it holds exactly the `j` with `can_reuse_*(nodes[i],
/// nodes[j])`, in member order — what a k-probe pair loop yields.
/// Building rows charges nothing; callers keep their own row-granular
/// checkpoints.
pub struct ReuseRows<'a> {
    reach: &'a Reachability,
    /// Registers only: the kill map rows are read through.
    kills: Option<&'a KillMap>,
    nodes: &'a [NodeId],
    /// The members as a mask over DAG node indices.
    mask: BitSet,
    /// DAG node index → member rank (`u32::MAX` for non-members).
    rank: Vec<u32>,
}

impl<'a> ReuseRows<'a> {
    /// Rows of `resource`'s relation over `nodes`, which must be in
    /// ascending node order (as [`AllocCtx::resource_nodes`] returns
    /// them), so that closure-bit order is member order. `kills` is
    /// only read for registers.
    pub fn new(
        ctx: &'a AllocCtx<'_>,
        kills: &'a KillMap,
        resource: ResourceKind,
        nodes: &'a [NodeId],
    ) -> Self {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "members must be in ascending node order"
        );
        let n = ctx.ddg().dag().node_count();
        let mut mask = BitSet::new(n);
        let mut rank = vec![u32::MAX; n];
        for (i, &v) in nodes.iter().enumerate() {
            mask.insert(v.index());
            rank[v.index()] = i as u32;
        }
        ReuseRows {
            reach: ctx.reach(),
            kills: (resource == ResourceKind::Registers).then_some(kills),
            nodes,
            mask,
            rank,
        }
    }

    /// Appends row `i` — the member ranks `j` with
    /// `CanReuse(nodes[i], nodes[j])` — to `out`, in ascending `j`.
    /// `nodes[i]` itself never appears: the closure is acyclic, and
    /// `Kill(a)` is a descendant of `a` (a use, or the exit node).
    pub fn row(&self, i: usize, out: &mut Vec<usize>) {
        let a = self.nodes[i];
        // The closure row to read, and for registers the kill itself.
        let (src, own) = match self.kills {
            None => (a, None),
            Some(kills) => match kills.kill_of(a) {
                Some(k) => (k, Some(k.index())),
                None => return,
            },
        };
        let closure = self.reach.descendant_words(src);
        for (w, (&d, &m)) in closure.iter().zip(self.mask.as_words()).enumerate() {
            let mut bits = d;
            if let Some(k) = own.filter(|k| k / 64 == w) {
                bits |= 1 << (k % 64);
            }
            bits &= m;
            while bits != 0 {
                out.push(self.rank[w * 64 + bits.trailing_zeros() as usize] as usize);
                bits &= bits - 1;
            }
        }
    }

    /// A `k × k` matcher loaded with every row (not yet maximized).
    pub fn matcher(&self) -> IncrementalMatcher {
        IncrementalMatcher::from_rows(self.nodes.len(), |i, out| self.row(i, out))
    }
}

/// Measures one resource kind.
pub fn measure_resource(
    ctx: &mut AllocCtx<'_>,
    kills: &KillMap,
    resource: ResourceKind,
    options: MeasureOptions,
) -> ResourceMeasure {
    measure_resource_inner(ctx, kills, resource, options, &Unmetered, None)
}

fn measure_resource_inner(
    ctx: &mut AllocCtx<'_>,
    kills: &KillMap,
    resource: ResourceKind,
    options: MeasureOptions,
    meter: &dyn WorkMeter,
    poison_row: Option<u32>,
) -> ResourceMeasure {
    let nodes = ctx.resource_nodes(resource);
    let capacity = resource.capacity(ctx.machine());
    // Hammock priorities need the (lazily computed) hammock analysis;
    // compute it before borrowing ctx immutably for the relation.
    if !options.plain_matching {
        let _ = ctx.hammocks();
    }
    let poisoned = poison_row.map(|p| p as usize % nodes.len().max(1));
    let decomposition = {
        let ctx_ref: &AllocCtx<'_> = ctx;
        let reuse = ReuseRows::new(ctx_ref, kills, resource, &nodes);
        let rows = |i: usize, out: &mut Vec<usize>| {
            if poisoned != Some(i) {
                reuse.row(i, out);
            }
        };
        if options.plain_matching {
            decompose_prioritized_metered(&nodes, rows, |_, _| 0, meter)
        } else {
            let hammocks = ctx_ref.hammocks_ref().expect("hammocks computed above");
            decompose_prioritized_metered(&nodes, rows, |a, b| hammocks.edge_priority(a, b), meter)
        }
    };
    let required = decomposition.num_chains() as u32;
    ResourceMeasure {
        requirement: Requirement {
            resource,
            capacity,
            required,
        },
        decomposition,
    }
}

/// Computes only the requirement *count* of one resource, with a plain
/// Hopcroft–Karp matching and no hammock analysis. Every maximum
/// matching has the same cardinality, so the count equals the staged
/// measurement's; transformations use this for cheap tentative scoring
/// (§5's "tentatively applied, and the resource requirements … are
/// measured").
pub fn requirement_only(ctx: &AllocCtx<'_>, kills: &KillMap, resource: ResourceKind) -> u32 {
    requirement_only_metered(ctx, kills, resource, &Unmetered)
}

/// [`requirement_only`] with a cooperative [`WorkMeter`]. On exhaustion
/// the matching may stop sub-maximum, so the returned count can only
/// *over*-state the true requirement (conservative).
pub fn requirement_only_metered(
    ctx: &AllocCtx<'_>,
    kills: &KillMap,
    resource: ResourceKind,
    meter: &dyn WorkMeter,
) -> u32 {
    let nodes = ctx.resource_nodes(resource);
    let reuse = ReuseRows::new(ctx, kills, resource, &nodes);
    let k = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, row) in adj.iter_mut().enumerate() {
        // Row-granular checkpoint; dropped rows only shrink the
        // matching, over-stating the requirement (conservative).
        if !meter.charge(k as u64) {
            break;
        }
        reuse.row(i, row);
    }
    let m = ursa_graph::matching::hopcroft_karp_metered(k, k, &adj, meter);
    (k - m.len()) as u32
}

/// Cheap requirement counts for every machine resource (see
/// [`requirement_only`]).
pub fn summary_fast(ctx: &AllocCtx<'_>, kill_mode: KillMode) -> MeasurementSummary {
    summary_fast_metered(ctx, kill_mode, &Unmetered)
}

/// [`summary_fast`] with a cooperative [`WorkMeter`] (conservative on
/// exhaustion, like every metered measurement).
pub fn summary_fast_metered(
    ctx: &AllocCtx<'_>,
    kill_mode: KillMode,
    meter: &dyn WorkMeter,
) -> MeasurementSummary {
    let kills = select_kills_metered(ctx, kill_mode, meter);
    let requirements = ResourceKind::all_for(ctx.machine())
        .into_iter()
        .map(|resource| Requirement {
            resource,
            capacity: resource.capacity(ctx.machine()),
            required: requirement_only_metered(ctx, &kills, resource, meter),
        })
        .collect();
    MeasurementSummary { requirements }
}

/// Measures every resource of the machine (paper Figure 1, step
/// "Measure the requirements for both functional units and registers").
pub fn measure(ctx: &mut AllocCtx<'_>, options: MeasureOptions) -> Measurement {
    measure_metered(ctx, options, &Unmetered)
}

/// [`measure`] with a cooperative [`WorkMeter`]: augmentation inside the
/// staged matchings checkpoints against `meter`, and an exhausted meter
/// yields a decomposition that over-counts rather than under-counts.
/// This is also the site where a `poison-row` fault (chaos harness)
/// lands: the first resource measured loses one producer's `CanReuse`
/// row, which likewise only raises the measured requirement.
pub fn measure_metered(
    ctx: &mut AllocCtx<'_>,
    options: MeasureOptions,
    meter: &dyn WorkMeter,
) -> Measurement {
    let mut poison_row = trip_measure_fault(meter);
    let kills = select_kills_metered(ctx, options.kill_mode, meter);
    let resources = ResourceKind::all_for(ctx.machine())
        .into_iter()
        .map(|r| measure_resource_inner(ctx, &kills, r, options, meter, poison_row.take()))
        .collect();
    Measurement { resources, kills }
}

/// Measurement of an *adopted* context whose kill map and requirement
/// counts the incremental engine already maintains exactly (its commit
/// path asserts both against scratch under `ParanoidMeasure`). Only
/// resources that exceed their capacity get a real staged decomposition
/// — those are the ones `find_excessive` will consult; fitting
/// resources carry a [`ChainDecomposition::singletons`] placeholder,
/// which no reduce-loop consumer reads (`find_excessive` returns before
/// touching a fitting resource's chains). Callers that need minimum
/// witnesses for every resource — `minimality_gaps` diagnostics — must
/// use [`measure_metered`] instead.
///
/// An armed `Measure` fault (chaos harness) invalidates the trusted
/// summary, so that path falls back to the full per-resource
/// measurement with the poisoned row applied, exactly like
/// [`measure_metered`].
pub fn measure_adopted_metered(
    ctx: &mut AllocCtx<'_>,
    kills: KillMap,
    summary: &MeasurementSummary,
    options: MeasureOptions,
    meter: &dyn WorkMeter,
) -> Measurement {
    let mut poison_row = trip_measure_fault(meter);
    if poison_row.is_some() {
        let resources = ResourceKind::all_for(ctx.machine())
            .into_iter()
            .map(|r| measure_resource_inner(ctx, &kills, r, options, meter, poison_row.take()))
            .collect();
        return Measurement { resources, kills };
    }
    let resources = summary
        .requirements
        .iter()
        .map(|req| {
            if req.fits() {
                ResourceMeasure {
                    requirement: *req,
                    decomposition: ursa_graph::chains::ChainDecomposition::singletons(
                        &ctx.resource_nodes(req.resource),
                    ),
                }
            } else {
                measure_resource_inner(ctx, &kills, req.resource, options, meter, None)
            }
        })
        .collect();
    Measurement { resources, kills }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ursa_ir::ddg::DependenceDag;
    use ursa_ir::parser::parse;
    use ursa_machine::{FuClass, Machine};

    /// The paper's Figure 2 basic block.
    pub(crate) const FIG2: &str = "\
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

    fn ctx_of(src: &str, machine: Machine) -> AllocCtx<'static> {
        let p = parse(src).unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let m: &'static Machine = Box::leak(Box::new(machine));
        AllocCtx::new(ddg, m)
    }

    #[test]
    fn figure2_fu_requirement_is_four() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        let fu = m.of(ResourceKind::Fu(FuClass::Universal)).unwrap();
        assert_eq!(fu.requirement.required, 4, "paper: 4 FUs needed");
        assert!(fu.requirement.fits());
    }

    #[test]
    fn figure2_register_requirement_is_five() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap();
        assert_eq!(
            regs.requirement.required, 5,
            "paper: values of B, C, E, G, H alive simultaneously"
        );
    }

    #[test]
    fn figure2_excess_against_small_machine() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(3, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        assert!(!m.fits());
        assert_eq!(
            m.of(ResourceKind::Fu(FuClass::Universal))
                .unwrap()
                .requirement
                .excess(),
            1
        );
        assert_eq!(
            m.of(ResourceKind::Registers).unwrap().requirement.excess(),
            2
        );
        assert_eq!(m.total_excess(), 3);
    }

    #[test]
    fn naive_kill_measures_no_more_than_min_cover() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let cover = measure(
            &mut ctx,
            MeasureOptions {
                kill_mode: KillMode::MinCover,
                plain_matching: false,
            },
        );
        let naive = measure(
            &mut ctx,
            MeasureOptions {
                kill_mode: KillMode::Naive,
                plain_matching: false,
            },
        );
        let c = cover
            .of(ResourceKind::Registers)
            .unwrap()
            .requirement
            .required;
        let n = naive
            .of(ResourceKind::Registers)
            .unwrap()
            .requirement
            .required;
        assert!(n <= c, "naive {n} must not exceed min-cover {c}");
    }

    #[test]
    fn plain_matching_same_global_requirement() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let staged = measure(&mut ctx, MeasureOptions::default());
        let plain = measure(
            &mut ctx,
            MeasureOptions {
                kill_mode: KillMode::MinCover,
                plain_matching: true,
            },
        );
        assert_eq!(
            staged
                .summary()
                .requirements
                .iter()
                .map(|r| r.required)
                .collect::<Vec<_>>(),
            plain
                .summary()
                .requirements
                .iter()
                .map(|r| r.required)
                .collect::<Vec<_>>(),
            "both matchings are maximum, so global requirements agree"
        );
    }

    #[test]
    fn classed_machine_measures_per_class() {
        let mut ctx = ctx_of(FIG2, Machine::classic_vliw());
        let m = measure(&mut ctx, MeasureOptions::default());
        // 4 muls in Figure 2; B, C independent; F, G independent of each
        // other and of B, C only partially — requirement ≥ 2.
        let mul = m.of(ResourceKind::Fu(FuClass::Mul)).unwrap();
        assert!(mul.requirement.required >= 2);
        let div = m.of(ResourceKind::Fu(FuClass::Div)).unwrap();
        assert_eq!(div.requirement.required, 2, "H and I are independent");
        assert_eq!(div.requirement.capacity, 1);
        assert!(!div.requirement.fits());
    }

    #[test]
    fn summary_round_trip() {
        let machine = Machine::homogeneous(4, 4);
        let mut ctx = ctx_of(FIG2, machine);
        let m = measure(&mut ctx, MeasureOptions::default());
        let s = m.summary();
        assert_eq!(s.total_excess(), m.total_excess());
        assert!(!s.fits(ctx.machine()));
        assert!(s.of(ResourceKind::Registers).is_some());
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn chains_partition_the_producers() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap();
        let producer_count = ctx.resource_nodes(ResourceKind::Registers).len();
        assert_eq!(regs.decomposition.node_count(), producer_count);
    }
}
