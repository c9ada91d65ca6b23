//! Typed fault model and the deterministic, seed-driven fault injector.
//!
//! The paper's SoC (§V.A.3) cascades accelerators behind a host manager;
//! a production runtime must assume any of those devices, or the DMA
//! fabric between them, can fail. This module defines the fault taxonomy
//! the resilient dispatch loop in [`crate::soc::Soc`] handles, and a
//! [`FaultPlan`] that injects those faults *deterministically*: the whole
//! schedule is a pure function of `(seed, profile, target, fragment,
//! attempt, invocation)`, so the same `--chaos-seed` always reproduces the
//! same run, bit for bit — no wall-clock, no global RNG.
//!
//! Time is virtual throughout ([`VirtualClock`]): backoff delays and
//! fragment deadlines are accounted in simulated nanoseconds, which keeps
//! retry tests exact and CI free of timing flakiness. The timing is
//! constant; only the retry count is settable.

use pm_lower::FragmentKind;
use srdfg::hash::splitmix64;
use srdfg::Budget;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// How aggressively the injector perturbs a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaosProfile {
    /// No faults — byte-identical to a run without the chaos layer.
    #[default]
    Off,
    /// Recoverable faults only: every injected fault clears within two
    /// retries, and no device goes down permanently. A dispatch loop with
    /// `max_retries >= 2` always completes without fallback.
    Transient,
    /// Faults are frequent, may persist past the retry budget, and whole
    /// devices can be down for the entire run — exercising the
    /// host-fallback re-lowering path.
    Hostile,
}

impl FromStr for ChaosProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ChaosProfile::Off),
            "transient" => Ok(ChaosProfile::Transient),
            "hostile" => Ok(ChaosProfile::Hostile),
            other => Err(format!(
                "unknown chaos profile `{other}` (expected off, transient, or hostile)"
            )),
        }
    }
}

impl fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChaosProfile::Off => "off",
            ChaosProfile::Transient => "transient",
            ChaosProfile::Hostile => "hostile",
        })
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The accelerator aborted mid-fragment (compute fragments).
    AccelCrash,
    /// The fragment stalled past its dispatch deadline; the host manager
    /// gave up waiting after 1 ms of virtual time.
    FragmentStall,
    /// A DMA transfer delivered corrupted data (load/store fragments);
    /// the transfer must be re-issued in full.
    DmaCorruption,
    /// A DMA transfer ended short of the descriptor length; the transfer
    /// must be re-issued in full.
    DmaTruncation,
    /// The device reported itself down. Transient downs (a device
    /// resetting) are retryable; persistent downs take the target out of
    /// the run and trigger host-fallback re-lowering.
    DeviceDown {
        /// Whether the outage outlasts any retry budget.
        persistent: bool,
    },
}

impl FaultKind {
    /// True for faults that re-issuing the fragment can clear.
    pub fn retryable(&self) -> bool {
        !matches!(self, FaultKind::DeviceDown { persistent: true })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AccelCrash => f.write_str("accelerator crash"),
            FaultKind::FragmentStall => f.write_str("fragment stall past deadline"),
            FaultKind::DmaCorruption => f.write_str("DMA transfer corruption"),
            FaultKind::DmaTruncation => f.write_str("DMA transfer truncation"),
            FaultKind::DeviceDown { persistent: true } => f.write_str("device down (persistent)"),
            FaultKind::DeviceDown { persistent: false } => f.write_str("device down (transient)"),
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_DOWN: u64 = 0xD0;
const SALT_FAULT: u64 = 0xFA;

fn fnv64(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The deterministic fault injector: a pure function from
/// `(seed, profile, target, fragment, attempt)` to an optional fault.
///
/// [`crate::soc::Soc`] draws it for every dispatch attempt, keyed by the
/// backend's [`crate::backend::Backend::name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-invocation stream (multi-invocation trajectories draw fresh
    /// transient faults each step; device-down draws stay pinned to the
    /// base seed so an outage is stable across the whole trajectory).
    inv: u64,
    profile: ChaosProfile,
}

impl FaultPlan {
    /// A plan for one seed and profile (invocation stream 0).
    pub fn new(seed: u64, profile: ChaosProfile) -> Self {
        FaultPlan { seed, inv: 0, profile }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The chaos profile.
    pub fn profile(&self) -> ChaosProfile {
        self.profile
    }

    /// Derives the plan for invocation `k` of a trajectory: transient
    /// fault draws change, persistent device-down draws do not.
    pub fn for_invocation(&self, k: u64) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            inv: splitmix64(self.seed ^ k.wrapping_mul(PHI)),
            profile: self.profile,
        }
    }

    fn mix(&self, base: u64, target: &str, salt: u64) -> u64 {
        splitmix64(splitmix64(base ^ fnv64(target)) ^ salt)
    }

    /// Whether `target` is persistently down for this whole run
    /// (hostile profile only). Stable across invocations.
    pub fn device_down(&self, target: &str) -> bool {
        self.profile == ChaosProfile::Hostile
            && self.mix(self.seed, target, SALT_DOWN).is_multiple_of(4)
    }

    /// The fault (if any) injected into dispatch attempt `attempt`
    /// (1-based) of fragment `fragment` on `target`.
    ///
    /// Transient-profile faults always clear by attempt 3; hostile-profile
    /// faults may persist past any retry budget or report a persistent
    /// device-down, forcing the fallback path.
    pub fn fault_for(
        &self,
        target: &str,
        fragment: usize,
        kind: FragmentKind,
        attempt: u32,
    ) -> Option<FaultKind> {
        let (denom, persist_span) = match self.profile {
            ChaosProfile::Off => return None,
            ChaosProfile::Transient => (8, 2),
            ChaosProfile::Hostile => (3, 8),
        };
        let h = self.mix(
            self.seed ^ self.inv,
            target,
            SALT_FAULT ^ (fragment as u64).wrapping_mul(PHI),
        );
        if !h.is_multiple_of(denom) {
            return None;
        }
        if self.profile == ChaosProfile::Hostile && (h >> 48).is_multiple_of(16) {
            return Some(FaultKind::DeviceDown { persistent: true });
        }
        // Attempts 1..=persist fault, then the fragment goes through.
        let persist = 1 + ((h >> 8) % persist_span) as u32;
        if attempt > persist {
            return None;
        }
        Some(match kind {
            FragmentKind::Load | FragmentKind::Store => match (h >> 16) % 3 {
                0 => FaultKind::DmaCorruption,
                1 => FaultKind::DmaTruncation,
                _ => FaultKind::FragmentStall,
            },
            FragmentKind::Compute => match (h >> 16) % 3 {
                0 => FaultKind::AccelCrash,
                1 => FaultKind::FragmentStall,
                _ => FaultKind::DeviceDown { persistent: false },
            },
        })
    }
}

/// How long (virtual ns) the host manager waits on a stalled fragment
/// before declaring a [`FaultKind::FragmentStall`].
pub(crate) const FRAGMENT_DEADLINE_NS: u64 = 1_000_000;

/// Exponential backoff before retry `retry` (1-based), in virtual
/// nanoseconds: 10 µs doubling per retry, capped at 10 ms.
pub(crate) fn backoff_delay_ns(retry: u32) -> u64 {
    let doublings = retry.saturating_sub(1).min(63);
    10_000u64.saturating_mul(1 << doublings).min(10_000_000)
}

/// A monotonically advancing virtual clock (simulated nanoseconds).
///
/// All retry/backoff/deadline accounting runs on virtual time so chaos
/// runs are exactly reproducible and tests never race a wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    ns: u64,
}

impl VirtualClock {
    /// A clock at t=0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock.
    pub fn advance(&mut self, ns: u64) {
        self.ns = self.ns.saturating_add(ns);
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns
    }
}

/// Everything the resilient dispatch loop needs to run one chaos
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The deterministic fault schedule.
    pub plan: FaultPlan,
    /// Retries allowed per fragment beyond the first attempt.
    pub max_retries: u32,
    /// Targets forced persistently down regardless of the fault draw —
    /// the sentinel tests use this to kill every accelerator at once, and
    /// the serve pool uses it to steer traffic away from open breakers.
    pub force_down: BTreeSet<String>,
    /// Request-level cooperative-cancellation budget, charged per
    /// dispatch attempt and per invocation. Compares (and defaults to)
    /// unlimited, so existing chaos configs are unchanged.
    pub budget: Budget,
}

impl ChaosConfig {
    /// The no-chaos configuration: [`ChaosProfile::Off`], nothing forced
    /// down. Dispatch under this config is byte-identical to a plain run.
    pub fn off() -> Self {
        ChaosConfig::new(0, ChaosProfile::Off)
    }

    /// A configuration for one seed and profile with 3 retries per
    /// fragment.
    pub fn new(seed: u64, profile: ChaosProfile) -> Self {
        ChaosConfig {
            plan: FaultPlan::new(seed, profile),
            max_retries: 3,
            force_down: BTreeSet::new(),
            budget: Budget::unlimited(),
        }
    }

    /// Overrides the retry count.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Total virtual-time budget per fragment (attempts + backoff),
    /// `FRAGMENT_DEADLINE_NS · (max_retries + 2)`; exceeding it marks the
    /// device down even before the retry count is exhausted.
    pub fn fragment_budget_ns(&self) -> u64 {
        FRAGMENT_DEADLINE_NS.saturating_mul(self.max_retries as u64 + 2)
    }

    /// Forces `target` persistently down.
    pub fn with_down(mut self, target: impl Into<String>) -> Self {
        self.force_down.insert(target.into());
        self
    }

    /// Attaches a request budget; dispatch unwinds with
    /// [`crate::SocError::BudgetExhausted`] when it runs out.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Derives the configuration for invocation `k` of a trajectory.
    pub fn for_invocation(&self, k: u64) -> ChaosConfig {
        ChaosConfig { plan: self.plan.for_invocation(k), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parses_and_displays() {
        for p in [ChaosProfile::Off, ChaosProfile::Transient, ChaosProfile::Hostile] {
            assert_eq!(p.to_string().parse::<ChaosProfile>().unwrap(), p);
        }
        assert!("chaotic-evil".parse::<ChaosProfile>().is_err());
    }

    #[test]
    fn off_profile_never_faults() {
        let plan = FaultPlan::new(0xDEAD, ChaosProfile::Off);
        for frag in 0..512 {
            for attempt in 1..5 {
                assert_eq!(plan.fault_for("TABLA", frag, FragmentKind::Compute, attempt), None);
            }
        }
        assert!(!plan.device_down("TABLA"));
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(7, ChaosProfile::Transient);
        let b = FaultPlan::new(7, ChaosProfile::Transient);
        let c = FaultPlan::new(8, ChaosProfile::Transient);
        let draw = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..256).map(|i| p.fault_for("DECO", i, FragmentKind::Load, 1)).collect()
        };
        assert_eq!(draw(&a), draw(&b), "same seed, same schedule");
        assert_ne!(draw(&a), draw(&c), "different seed, different schedule");
        assert!(draw(&a).iter().any(Option::is_some), "transient profile injects something");
    }

    #[test]
    fn transient_faults_always_clear_by_attempt_three() {
        let plan = FaultPlan::new(0xC0FFEE, ChaosProfile::Transient);
        for target in ["TABLA", "DECO", "RoboX", "Graphicionado", "TVM-VTA"] {
            for frag in 0..2048 {
                for kind in [FragmentKind::Compute, FragmentKind::Load, FragmentKind::Store] {
                    assert_eq!(plan.fault_for(target, frag, kind, 3), None);
                    assert_eq!(plan.fault_for(target, frag, kind, 4), None);
                    if let Some(f) = plan.fault_for(target, frag, kind, 1) {
                        assert!(f.retryable(), "transient fault {f} must be retryable");
                    }
                }
            }
            assert!(!plan.device_down(target), "transient profile never downs a device");
        }
    }

    #[test]
    fn hostile_profile_downs_some_device_somewhere() {
        // Not a probabilistic test: the draw is deterministic, we just pin
        // that the hostile profile actually exercises the outage path for
        // at least one of many seeds.
        let mut downs = 0;
        for seed in 0..32u64 {
            let plan = FaultPlan::new(seed, ChaosProfile::Hostile);
            for t in ["TABLA", "DECO", "RoboX", "Graphicionado", "TVM-VTA"] {
                downs += plan.device_down(t) as u32;
            }
        }
        assert!(downs > 0, "no device-down draw in 160 samples");
    }

    #[test]
    fn invocation_streams_differ_but_outages_are_stable() {
        let base = FaultPlan::new(42, ChaosProfile::Hostile);
        let k0 = base.for_invocation(0);
        let k1 = base.for_invocation(1);
        let draw = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..512).map(|i| p.fault_for("TABLA", i, FragmentKind::Compute, 1)).collect()
        };
        assert_ne!(draw(&k0), draw(&k1), "per-invocation fault streams must differ");
        for t in ["TABLA", "DECO", "RoboX"] {
            assert_eq!(k0.device_down(t), k1.device_down(t), "outages must be stable");
        }
    }

    #[test]
    fn backoff_schedule_doubles_then_caps() {
        assert_eq!(backoff_delay_ns(1), 10_000);
        assert_eq!(backoff_delay_ns(2), 20_000);
        assert_eq!(backoff_delay_ns(3), 40_000);
        assert_eq!(backoff_delay_ns(10), 5_120_000);
        assert_eq!(backoff_delay_ns(11), 10_000_000, "capped");
        assert_eq!(backoff_delay_ns(50), 10_000_000, "stays capped without overflow");
    }

    #[test]
    fn virtual_clock_advances_and_saturates() {
        let mut c = VirtualClock::new();
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_ns(), 12);
        c.advance(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn config_defaults_and_overrides() {
        let off = ChaosConfig::off();
        assert_eq!((off.plan.profile(), off.max_retries), (ChaosProfile::Off, 3));
        assert_eq!(off.fragment_budget_ns(), FRAGMENT_DEADLINE_NS * 5);
        let c = ChaosConfig::new(1, ChaosProfile::Transient).with_max_retries(5);
        assert_eq!(c.max_retries, 5);
        assert_eq!(c.fragment_budget_ns(), FRAGMENT_DEADLINE_NS * 7);
        assert!(ChaosConfig::off().with_down("TABLA").force_down.contains("TABLA"));
    }
}
