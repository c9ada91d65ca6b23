//! Per-backend circuit breakers for the serving pool.
//!
//! A long-lived service must stop dispatching to a backend that keeps
//! failing: every request routed at a persistently-down device burns its
//! full retry/backoff budget before host fallback rescues it. The
//! breaker turns that repeated discovery into a one-time event — after a
//! device trips its breaker, subsequent requests are *pre-steered* onto
//! the host via the same `relower_without` path a mid-run outage uses
//! (so outputs stay byte-identical to the healthy path), and the device
//! is re-probed only after a cool-down.
//!
//! The state machine is the classic three-state breaker:
//!
//! * **Closed** — traffic flows; consecutive failures are counted.
//!   A persistent [`crate::fault::FaultKind::DeviceDown`] trips
//!   immediately; retryable exhaustion trips after 3 consecutive
//!   failures.
//! * **Open** — traffic is steered away ([`BreakerBoard::guard`] adds
//!   the target to the request's forced-down set). After a cool-down of
//!   *virtual* time (50 ms unless the pool sets another) the breaker
//!   moves to half-open.
//! * **Half-open** — the next request is allowed through un-steered as a
//!   probe. One success closes the breaker; any failure re-opens it.
//!
//! Time is the shard's [`VirtualClock`], advanced by the virtual
//! nanoseconds each served request consumed — never the wall clock — so
//! breaker trajectories are bit-for-bit reproducible under the chaos
//! soak harness.

use crate::fault::VirtualClock;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Where a breaker is in its trip/recover cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Traffic flows normally.
    #[default]
    Closed,
    /// Traffic is steered to host fallback; waiting out the cool-down.
    Open,
    /// Cool-down elapsed; the next request probes the device.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Consecutive retryable failures that trip a closed breaker. Persistent
/// device-down faults trip on the first observation.
const FAILURE_THRESHOLD: u32 = 3;

/// Virtual nanoseconds an open breaker waits before a half-open probe
/// unless the pool sets another: 50 ms ≈ a handful of served requests.
pub(crate) const DEFAULT_COOLDOWN_NS: u64 = 50_000_000;

/// One backend's breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cooldown_ns: u64,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ns: u64,
    /// Times this breaker has tripped open.
    pub trips: u64,
    /// Requests steered to host fallback while the breaker was open.
    pub steered: u64,
}

impl CircuitBreaker {
    /// A closed breaker that waits `cooldown_ns` (virtual) after tripping.
    pub fn new(cooldown_ns: u64) -> CircuitBreaker {
        CircuitBreaker {
            cooldown_ns,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ns: 0,
            trips: 0,
            steered: 0,
        }
    }

    /// Current state (without applying the cool-down transition).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Applies the cool-down transition at virtual time `now_ns` and
    /// returns the resulting state.
    pub fn poll(&mut self, now_ns: u64) -> BreakerState {
        if self.state == BreakerState::Open
            && now_ns.saturating_sub(self.opened_at_ns) >= self.cooldown_ns
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// Records a successful dispatch to this backend.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
            }
            // A success observed while open belongs to a request admitted
            // before the trip; it carries no new information.
            BreakerState::Open => {}
        }
    }

    /// Records a dispatch failure. `persistent` marks a fault the retry
    /// loop can never clear (a persistent device-down), which trips the
    /// breaker immediately; retryable exhaustion counts toward the
    /// threshold.
    pub fn on_failure(&mut self, persistent: bool, now_ns: u64) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now_ns),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if persistent || self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.trip(now_ns);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_ns: u64) {
        self.state = BreakerState::Open;
        self.opened_at_ns = now_ns;
        self.consecutive_failures = 0;
        self.trips += 1;
    }
}

/// Read-only view of one breaker, as surfaced in the pool report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// The guarded backend.
    pub target: String,
    /// State at snapshot time.
    pub state: BreakerState,
    /// Times the breaker has tripped open.
    pub trips: u64,
    /// Requests steered to host fallback while open.
    pub steered: u64,
}

/// All breakers of one shard, sharing the shard's virtual clock.
///
/// Breakers are created lazily on the first failure, so healthy backends
/// (and the host, which cannot fail) never appear on the board.
#[derive(Debug, Clone)]
pub struct BreakerBoard {
    cooldown_ns: u64,
    clock: VirtualClock,
    breakers: BTreeMap<String, CircuitBreaker>,
}

impl BreakerBoard {
    /// An empty board whose breakers cool down for `cooldown_ns`.
    pub fn new(cooldown_ns: u64) -> BreakerBoard {
        BreakerBoard { cooldown_ns, clock: VirtualClock::new(), breakers: BTreeMap::new() }
    }

    /// Advances the shard's virtual clock (by a served request's
    /// `virtual_ns`).
    pub fn advance(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The targets an admitted request must steer away from: every
    /// breaker still open after the cool-down transition. Half-open
    /// breakers are *not* included — that is the probe.
    pub fn guard(&mut self) -> BTreeSet<String> {
        let now = self.clock.now_ns();
        let mut forced = BTreeSet::new();
        for (target, b) in &mut self.breakers {
            if b.poll(now) == BreakerState::Open {
                b.steered += 1;
                forced.insert(target.clone());
            }
        }
        forced
    }

    /// Records a successful organic dispatch to `target`. Only existing
    /// breakers are touched: a backend that has never failed needs none.
    pub fn on_success(&mut self, target: &str) {
        if let Some(b) = self.breakers.get_mut(target) {
            b.on_success();
        }
    }

    /// Records an organic dispatch failure on `target`, creating its
    /// breaker on first observation.
    pub fn on_failure(&mut self, target: &str, persistent: bool) {
        let now = self.clock.now_ns();
        self.breakers
            .entry(target.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.cooldown_ns))
            .on_failure(persistent, now);
    }

    /// Snapshot of every breaker on the board, in target order.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        self.breakers
            .iter()
            .map(|(target, b)| BreakerSnapshot {
                target: target.clone(),
                state: b.state(),
                trips: b.trips,
                steered: b.steered,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: u64 = 1_000;

    #[test]
    fn persistent_failure_trips_immediately() {
        let mut b = CircuitBreaker::new(COOLDOWN);
        b.on_failure(true, 100);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn retryable_failures_trip_at_threshold_and_successes_reset() {
        let mut b = CircuitBreaker::new(COOLDOWN);
        b.on_failure(false, 0);
        b.on_failure(false, 0);
        b.on_success(); // resets the consecutive count
        b.on_failure(false, 0);
        b.on_failure(false, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(false, 0);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn cooldown_then_probe_success_closes() {
        let mut b = CircuitBreaker::new(COOLDOWN);
        b.on_failure(true, 0);
        assert_eq!(b.poll(999), BreakerState::Open, "still cooling down");
        assert_eq!(b.poll(1_000), BreakerState::HalfOpen, "cooldown elapsed");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(COOLDOWN);
        b.on_failure(true, 0);
        assert_eq!(b.poll(1_000), BreakerState::HalfOpen);
        b.on_failure(false, 1_000);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
        assert_eq!(b.poll(1_999), BreakerState::Open, "cooldown restarted at reopen");
        assert_eq!(b.poll(2_000), BreakerState::HalfOpen);
    }

    #[test]
    fn board_guards_open_breakers_only_and_counts_steering() {
        let mut board = BreakerBoard::new(COOLDOWN);
        board.on_failure("TABLA", true);
        board.on_success("DECO"); // never failed → no breaker, no-op
        let forced = board.guard();
        assert_eq!(forced.into_iter().collect::<Vec<_>>(), vec!["TABLA".to_string()]);
        assert_eq!(board.snapshot().len(), 1, "healthy backends stay off the board");
        // Past the cooldown the guard lets the probe through.
        board.advance(1_000);
        assert!(board.guard().is_empty(), "half-open probe must not be steered");
        board.on_success("TABLA");
        let snap = board.snapshot();
        assert_eq!(snap[0].state, BreakerState::Closed);
        assert_eq!(snap[0].trips, 1);
        assert_eq!(snap[0].steered, 1);
    }
}
