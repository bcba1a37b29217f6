//! Deterministic, seeded fault injection.
//!
//! The chaos harness must prove the pipeline survives *induced* faults,
//! not just natural ones. A [`FaultPlan`] names one fault (what kind,
//! at which stage site) and is armed per-compile in a thread-local slot;
//! the instrumented sites call [`trip`] — a one-shot check that is two
//! thread-local reads when nothing is armed, so production compiles pay
//! effectively nothing. Plans derive deterministically from a seed
//! ([`FaultPlan::from_seed`]), so any chaos failure replays from one
//! number.
//!
//! The same module owns the *stage marker* used by panic isolation: the
//! pipeline records which stage it is entering, and the `catch_unwind`
//! wrapper in `ursa-sched` attributes any escaped panic to the last
//! recorded stage (`CompileError::Internal { stage }`).

use std::cell::Cell;
use std::fmt;

/// Instrumented pipeline locations where a fault can fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The reduce-loop head in `driver.rs`.
    Driver,
    /// `Kill()` selection (`kill.rs`).
    KillSelect,
    /// Requirement measurement (`measure.rs` adjacency build).
    Measure,
    /// §4.1 FU sequentialization.
    FuSeq,
    /// §4.2 register sequentialization.
    RegSeq,
    /// §4.3 spilling.
    Spill,
    /// The Goodman–Hsu register-file widening loop (`ursa-sched`).
    Widen,
    /// List scheduling / assignment (`ursa-sched`).
    Schedule,
}

impl FaultSite {
    /// Every instrumented site, for plan derivation and reporting.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::Driver,
        FaultSite::KillSelect,
        FaultSite::Measure,
        FaultSite::FuSeq,
        FaultSite::RegSeq,
        FaultSite::Spill,
        FaultSite::Widen,
        FaultSite::Schedule,
    ];
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::Driver => "driver",
            FaultSite::KillSelect => "kill-select",
            FaultSite::Measure => "measure",
            FaultSite::FuSeq => "fu-seq",
            FaultSite::RegSeq => "reg-seq",
            FaultSite::Spill => "spill",
            FaultSite::Widen => "widen",
            FaultSite::Schedule => "schedule",
        })
    }
}

/// What the fault does when its site is reached.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// `panic!` at the site (must surface as `Internal { stage }`, never
    /// an escaped panic).
    Panic,
    /// Starve the compile budget (cooperative exhaustion from that point
    /// on; must surface as a demotion or a typed deadline error).
    Starve,
    /// Drop one producer's `CanReuse` row while building the measurement
    /// adjacency. Fewer reuse edges → smaller matching → *higher*
    /// measured requirement: strictly conservative, so the compile must
    /// still succeed (possibly with extra transforms) or fail typed.
    PoisonRow,
    /// Report "no applicable candidate" from a transformation
    /// (allocation failure; exercises the ladder).
    Refuse,
    /// Collapse the Goodman–Hsu widening cap to the starting file size,
    /// forcing the typed `RegisterOverflow` path.
    WidenCap,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::Starve => "starve",
            FaultKind::PoisonRow => "poison-row",
            FaultKind::Refuse => "refuse",
            FaultKind::WidenCap => "widen-cap",
        })
    }
}

/// One planned fault: `kind` fires the first time `site` is reached.
///
/// `payload` parameterizes kinds that need a value (the poisoned row
/// index); other kinds ignore it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Where the fault fires.
    pub site: FaultSite,
    /// What it does.
    pub kind: FaultKind,
    /// Kind-specific parameter (row index for `PoisonRow`).
    pub payload: u32,
}

/// SplitMix64 — the classic seed expander; in-tree so `ursa-core` does
/// not need a dependency on `ursa-rng` for three multiplies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derives a plan deterministically from `seed`. Only meaningful
    /// (kind, site) combinations are produced: `Refuse` targets the
    /// transforms, `PoisonRow` the measurement, `WidenCap` the widening
    /// loop, while `Panic` and `Starve` roam every site.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let kind = match splitmix64(&mut s) % 5 {
            0 => FaultKind::Panic,
            1 => FaultKind::Starve,
            2 => FaultKind::PoisonRow,
            3 => FaultKind::Refuse,
            _ => FaultKind::WidenCap,
        };
        let site = match kind {
            FaultKind::Panic | FaultKind::Starve => {
                FaultSite::ALL[(splitmix64(&mut s) % FaultSite::ALL.len() as u64) as usize]
            }
            FaultKind::PoisonRow => FaultSite::Measure,
            FaultKind::Refuse => match splitmix64(&mut s) % 3 {
                0 => FaultSite::FuSeq,
                1 => FaultSite::RegSeq,
                _ => FaultSite::Spill,
            },
            FaultKind::WidenCap => FaultSite::Widen,
        };
        let payload = (splitmix64(&mut s) & 0xFFFF_FFFF) as u32;
        FaultPlan {
            site,
            kind,
            payload,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.site)
    }
}

thread_local! {
    static ARMED: Cell<Option<FaultPlan>> = const { Cell::new(None) };
    static STAGE: Cell<&'static str> = const { Cell::new("setup") };
}

/// Arms `plan` for the current thread. The plan is one-shot: the first
/// matching [`trip`] consumes it. Re-arming replaces any leftover plan.
pub fn arm(plan: FaultPlan) {
    ARMED.with(|a| a.set(Some(plan)));
}

/// Disarms and returns whatever plan is still pending (a leftover means
/// the compile never reached the planned site — a legal outcome: e.g. a
/// `Widen` fault on a trace that fits without widening).
pub fn disarm() -> Option<FaultPlan> {
    ARMED.with(|a| a.take())
}

/// One-shot site check: if a plan is armed for `site`, consumes it and
/// returns the fault to perform. Callers handle each kind they support;
/// `FaultKind::Panic` can be delegated to [`trip_panic`].
pub fn trip(site: FaultSite) -> Option<FaultPlan> {
    ARMED.with(|a| {
        let armed = a.get()?;
        if armed.site == site {
            a.set(None);
            Some(armed)
        } else {
            None
        }
    })
}

/// Panics with a recognizable message — the standard action for
/// [`FaultKind::Panic`] so the isolation layer (and its tests) can tell
/// injected panics from real ones.
pub fn trip_panic(site: FaultSite) -> ! {
    panic!("injected fault: synthetic panic at {site}")
}

/// Records the pipeline stage now executing (for panic attribution).
pub fn set_stage(stage: &'static str) {
    STAGE.with(|s| s.set(stage));
}

/// The stage most recently recorded on this thread.
pub fn current_stage() -> &'static str {
    STAGE.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
    }

    #[test]
    fn from_seed_covers_every_kind_and_site() {
        let mut kinds = std::collections::BTreeSet::new();
        let mut sites = std::collections::BTreeSet::new();
        for seed in 0..512 {
            let p = FaultPlan::from_seed(seed);
            kinds.insert(format!("{}", p.kind));
            sites.insert(format!("{}", p.site));
        }
        assert_eq!(kinds.len(), 5, "kinds seen: {kinds:?}");
        assert_eq!(sites.len(), FaultSite::ALL.len(), "sites seen: {sites:?}");
    }

    #[test]
    fn plans_pair_kinds_with_meaningful_sites() {
        for seed in 0..2048 {
            let p = FaultPlan::from_seed(seed);
            match p.kind {
                FaultKind::PoisonRow => assert_eq!(p.site, FaultSite::Measure),
                FaultKind::WidenCap => assert_eq!(p.site, FaultSite::Widen),
                FaultKind::Refuse => assert!(matches!(
                    p.site,
                    FaultSite::FuSeq | FaultSite::RegSeq | FaultSite::Spill
                )),
                FaultKind::Panic | FaultKind::Starve => {}
            }
        }
    }

    #[test]
    fn trip_is_one_shot_and_site_selective() {
        let plan = FaultPlan {
            site: FaultSite::RegSeq,
            kind: FaultKind::Refuse,
            payload: 7,
        };
        arm(plan);
        assert_eq!(trip(FaultSite::FuSeq), None, "wrong site must not trip");
        assert_eq!(trip(FaultSite::RegSeq), Some(plan));
        assert_eq!(trip(FaultSite::RegSeq), None, "one-shot");
        assert_eq!(disarm(), None);
    }

    #[test]
    fn disarm_returns_leftover_plan() {
        let plan = FaultPlan::from_seed(3);
        arm(plan);
        assert_eq!(disarm(), Some(plan));
        assert_eq!(disarm(), None);
    }

    #[test]
    fn stage_marker_round_trips() {
        set_stage("allocate");
        assert_eq!(current_stage(), "allocate");
        set_stage("schedule");
        assert_eq!(current_stage(), "schedule");
    }
}
