//! Compile-time resource budgets (deadline, work steps, memory).
//!
//! A [`CompileBudget`] is the pipeline's implementation of
//! [`ursa_graph::meter::WorkMeter`]: one budget is created per compile
//! (the degradation ladder shares a single budget across all of its
//! rungs) and threaded by shared reference through the reduce loop, kill
//! selection, matching augmentation and the transform loops. Checkpoints
//! call [`CompileBudget::charge`]; the first exhausted answer is sticky
//! and every layer unwinds cooperatively with its best-so-far state —
//! anytime semantics, never a hang.
//!
//! Wall-clock deadlines are only sampled every [`DEADLINE_CHECK_UNITS`]
//! charged units so the common case is two `Cell` reads and an add; the
//! bench series `reduce_budgeted/*` pins the overhead against the
//! unbudgeted path.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};
use ursa_graph::meter::WorkMeter;

/// How often (in charged work units) the wall clock is compared against
/// the deadline. `Instant::now` costs a vDSO call — cheap, but not
/// two-Cell-reads cheap, so it is amortized.
const DEADLINE_CHECK_UNITS: u64 = 4096;

/// Which limit exhausted the budget first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-step allowance ran out.
    Steps,
    /// The peak-memory estimate exceeded its cap.
    Memory,
}

impl fmt::Display for BudgetCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetCause::Deadline => "deadline",
            BudgetCause::Steps => "steps",
            BudgetCause::Memory => "memory",
        })
    }
}

/// A per-compile resource budget. See the module docs for the protocol.
///
/// # Examples
///
/// ```
/// use ursa_core::budget::{BudgetCause, CompileBudget};
/// use ursa_graph::meter::WorkMeter;
///
/// let b = CompileBudget::with_max_steps(10);
/// assert!(b.charge(10));
/// assert!(!b.charge(1));
/// assert_eq!(b.cause(), Some(BudgetCause::Steps));
///
/// let unlimited = CompileBudget::unlimited();
/// assert!(unlimited.charge(u64::MAX));
/// ```
#[derive(Debug)]
pub struct CompileBudget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    max_mem_bytes: Option<u64>,
    steps: Cell<u64>,
    peak_mem_bytes: Cell<u64>,
    next_deadline_check: Cell<u64>,
    exhausted: Cell<Option<BudgetCause>>,
}

impl CompileBudget {
    /// A budget that never exhausts (the default when no limit is
    /// requested; charging still counts steps for telemetry).
    pub fn unlimited() -> Self {
        Self::new(None, None, None)
    }

    /// A budget with the given limits; `None` disables that dimension.
    pub fn new(
        deadline: Option<Duration>,
        max_steps: Option<u64>,
        max_mem_bytes: Option<u64>,
    ) -> Self {
        CompileBudget {
            // A duration too large to represent is no deadline at all.
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            max_steps,
            max_mem_bytes,
            steps: Cell::new(0),
            peak_mem_bytes: Cell::new(0),
            next_deadline_check: Cell::new(0),
            exhausted: Cell::new(None),
        }
    }

    /// A budget limited only by wall clock.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self::new(Some(deadline), None, None)
    }

    /// A budget limited only by work steps.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Self::new(None, Some(max_steps), None)
    }

    /// Work units charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Why the budget exhausted, if it did.
    pub fn cause(&self) -> Option<BudgetCause> {
        self.exhausted.get()
    }

    /// `true` once any limit has been hit.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.get().is_some()
    }

    /// Records a transient allocation of `bytes` toward the peak-memory
    /// estimate and exhausts the budget if the cap is exceeded. The
    /// estimate is deliberately coarse (dominant O(N²) structures only);
    /// it exists to bound pathological traces, not to account exactly.
    pub fn note_mem(&self, bytes: u64) {
        let peak = self.peak_mem_bytes.get().max(bytes);
        self.peak_mem_bytes.set(peak);
        if self.exhausted.get().is_none() && self.max_mem_bytes.is_some_and(|cap| peak > cap) {
            self.exhausted.set(Some(BudgetCause::Memory));
        }
    }

    /// Largest single memory estimate seen (bytes).
    pub fn peak_mem_bytes(&self) -> u64 {
        self.peak_mem_bytes.get()
    }

    /// Forces exhaustion with an explicit cause (fault injection's
    /// budget-starvation path, and [`WorkMeter::starve`]).
    pub fn force_exhaust(&self, cause: BudgetCause) {
        if self.exhausted.get().is_none() {
            self.exhausted.set(Some(cause));
        }
    }
}

impl WorkMeter for CompileBudget {
    fn charge(&self, units: u64) -> bool {
        if self.exhausted.get().is_some() {
            return false;
        }
        let steps = self.steps.get().saturating_add(units);
        self.steps.set(steps);
        if self.max_steps.is_some_and(|cap| steps > cap) {
            self.exhausted.set(Some(BudgetCause::Steps));
            return false;
        }
        if let Some(deadline) = self.deadline {
            if steps >= self.next_deadline_check.get() {
                self.next_deadline_check
                    .set(steps.saturating_add(DEADLINE_CHECK_UNITS));
                if Instant::now() >= deadline {
                    self.exhausted.set(Some(BudgetCause::Deadline));
                    return false;
                }
            }
        }
        true
    }

    fn starve(&self) {
        self.force_exhaust(BudgetCause::Steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts_but_counts() {
        let b = CompileBudget::unlimited();
        assert!(b.charge(5));
        assert!(b.charge(7));
        assert_eq!(b.steps(), 12);
        assert!(!b.is_exhausted());
        assert!(b.cause().is_none());
    }

    #[test]
    fn step_limit_is_sticky() {
        let b = CompileBudget::with_max_steps(3);
        assert!(b.charge(3));
        assert!(!b.charge(1));
        assert!(!b.charge(0), "exhaustion must be sticky");
        assert_eq!(b.cause(), Some(BudgetCause::Steps));
    }

    #[test]
    fn zero_deadline_exhausts_on_first_charge() {
        let b = CompileBudget::with_deadline(Duration::ZERO);
        assert!(!b.charge(1));
        assert_eq!(b.cause(), Some(BudgetCause::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let b = CompileBudget::with_deadline(Duration::from_secs(3600));
        for _ in 0..10 {
            assert!(b.charge(DEADLINE_CHECK_UNITS));
        }
        assert!(!b.is_exhausted());
    }

    #[test]
    fn memory_cap_exhausts_with_cause() {
        let b = CompileBudget::new(None, None, Some(1000));
        b.note_mem(999);
        assert!(b.charge(1));
        b.note_mem(1001);
        assert!(!b.charge(1));
        assert_eq!(b.cause(), Some(BudgetCause::Memory));
        assert_eq!(b.peak_mem_bytes(), 1001);
    }

    #[test]
    fn starve_reports_steps_cause() {
        let b = CompileBudget::unlimited();
        b.starve();
        assert!(!b.charge(0));
        assert_eq!(b.cause(), Some(BudgetCause::Steps));
    }

    #[test]
    fn first_cause_wins() {
        let b = CompileBudget::with_max_steps(1);
        assert!(!b.charge(2));
        b.force_exhaust(BudgetCause::Deadline);
        assert_eq!(b.cause(), Some(BudgetCause::Steps));
    }
}
