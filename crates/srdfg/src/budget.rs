//! Request budgets for cooperative cancellation.
//!
//! A [`Budget`] bounds how much work one request may consume across the
//! whole pipeline — Algorithm 1 lowering rounds, Algorithm 2 fragment
//! compilation, and the SoC dispatch/retry loops all call
//! [`Budget::charge`] at loop granularity and unwind with a typed
//! [`BudgetExceeded`] the moment the budget runs out. Nothing is ever
//! killed: cancellation is purely cooperative, so a request past its
//! deadline releases its worker at the next checkpoint instead of holding
//! it to completion.
//!
//! Two independent limits compose:
//!
//! * **deadline** — a wall-clock bound measured from budget creation.
//!   This is the real-world guard rail (a wedged request cannot occupy a
//!   serve worker forever), but it is inherently timing-dependent.
//! * **fuel** — a count of deterministic work units (lowering splices,
//!   compiled fragments, dispatch attempts, invocations). Because every
//!   charge site is a pure function of the program and chaos seed, fuel
//!   exhaustion is *bit-for-bit reproducible*, which is what the chaos
//!   soak harness uses to inject deterministic "deadline jitter".
//!
//! The default [`Budget::unlimited`] carries no state and its checks
//! compile down to a branch on `None`, so un-budgeted callers (the vast
//! majority) pay nothing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed budget-exhaustion report: which pipeline stage hit the wall and
/// which limit was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The charge site that observed exhaustion (`lower`, `compile`,
    /// `dispatch`, `invoke`, …).
    pub stage: &'static str,
    /// The fuel limit, when fuel ran out.
    pub fuel: Option<u64>,
    /// The wall-clock deadline, when the deadline passed.
    pub deadline: Option<Duration>,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately limit-only (no elapsed/spent figures): the message
        // travels on the serve wire, where responses must be byte-stable
        // across replays of the same seed.
        match (self.fuel, self.deadline) {
            (Some(fuel), _) => {
                write!(f, "request budget exhausted during {}: fuel limit {fuel}", self.stage)
            }
            (None, Some(d)) => {
                write!(f, "request deadline of {} ms exceeded during {}", d.as_millis(), self.stage)
            }
            (None, None) => write!(f, "request budget exhausted during {}", self.stage),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[derive(Debug)]
struct Inner {
    start: Instant,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    spent: AtomicU64,
}

/// A shareable request budget (cheap [`Arc`] handle; clones alias one
/// spend counter, so the compile and execute stages of a request draw
/// from the same pool).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

/// Budgets compare by their *limits*, not their live spend — two configs
/// asking for the same bounds are the same configuration. This is what
/// lets containing types (e.g. a chaos config) keep deriving `Eq`.
impl PartialEq for Budget {
    fn eq(&self, other: &Budget) -> bool {
        self.limits() == other.limits()
    }
}

impl Eq for Budget {}

impl Budget {
    /// The no-op budget: every charge succeeds, nothing is counted.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A budget with an optional wall-clock deadline (measured from now)
    /// and an optional fuel limit. `(None, None)` is [`Budget::unlimited`].
    pub fn new(deadline: Option<Duration>, fuel: Option<u64>) -> Budget {
        if deadline.is_none() && fuel.is_none() {
            return Budget::unlimited();
        }
        Budget {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                deadline,
                fuel,
                spent: AtomicU64::new(0),
            })),
        }
    }

    /// The configured `(deadline, fuel)` limits.
    pub fn limits(&self) -> (Option<Duration>, Option<u64>) {
        match &self.inner {
            None => (None, None),
            Some(i) => (i.deadline, i.fuel),
        }
    }

    /// Fuel units charged so far (0 for unlimited budgets).
    pub fn spent_units(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spent.load(Ordering::Relaxed))
    }

    /// Charges `units` of work at `stage`.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the cumulative fuel spend passes the fuel
    /// limit, or the wall clock has passed the deadline. Fuel exhaustion
    /// is deterministic (charge totals are pure functions of the
    /// program); deadline exhaustion depends on the host's wall clock.
    pub fn charge(&self, stage: &'static str, units: u64) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let spent = inner.spent.fetch_add(units, Ordering::Relaxed).saturating_add(units);
        if let Some(fuel) = inner.fuel {
            if spent > fuel {
                return Err(BudgetExceeded { stage, fuel: Some(fuel), deadline: inner.deadline });
            }
        }
        if let Some(deadline) = inner.deadline {
            if inner.start.elapsed() > deadline {
                return Err(BudgetExceeded { stage, fuel: None, deadline: Some(deadline) });
            }
        }
        Ok(())
    }

    /// Whether the budget is already exhausted, without charging
    /// anything. Used by admission paths to turn away expired requests
    /// before any pipeline stage runs.
    pub fn check(&self, stage: &'static str) -> Result<(), BudgetExceeded> {
        self.charge(stage, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_charges_are_free() {
        let b = Budget::unlimited();
        assert_eq!(b.limits(), (None, None));
        for _ in 0..1000 {
            b.charge("lower", u64::MAX / 2).unwrap();
        }
        assert_eq!(b.spent_units(), 0);
    }

    #[test]
    fn fuel_exhaustion_is_deterministic() {
        for _ in 0..3 {
            let b = Budget::new(None, Some(10));
            assert!(b.charge("lower", 4).is_ok());
            assert!(b.charge("lower", 6).is_ok(), "exactly at the limit is fine");
            let err = b.charge("compile", 1).unwrap_err();
            assert_eq!(err.stage, "compile");
            assert_eq!(err.fuel, Some(10));
            assert!(err.to_string().contains("fuel limit 10"), "{err}");
        }
    }

    #[test]
    fn clones_share_one_spend_counter() {
        let a = Budget::new(None, Some(5));
        let b = a.clone();
        assert!(a.charge("lower", 3).is_ok());
        assert!(b.charge("dispatch", 3).is_err(), "clone must see the shared spend");
    }

    #[test]
    fn expired_deadline_fails_check_without_charging() {
        let b = Budget::new(Some(Duration::ZERO), None);
        std::thread::sleep(Duration::from_millis(2));
        let err = b.check("admission").unwrap_err();
        assert_eq!(err.stage, "admission");
        assert!(err.deadline.is_some());
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn equality_compares_limits_not_spend() {
        let a = Budget::new(None, Some(7));
        let b = Budget::new(None, Some(7));
        a.charge("lower", 3).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, Budget::new(None, Some(8)));
        assert_eq!(Budget::new(None, None), Budget::unlimited());
    }
}
