//! Sharded pool of simulated SoCs for multi-tenant serving.
//!
//! `pmc serve` dispatches every admitted request onto one of a fixed set
//! of [`Soc`] *shards*. A tenant is pinned to its shard by a stable hash
//! of the tenant name, which gives the service two properties for free:
//!
//! * **fault isolation** — a tenant whose chaos profile takes a device
//!   down perturbs only its own shard's dispatch schedule; every other
//!   tenant's results are computed on an untouched `Soc` (and chaos state
//!   is per-request anyway: [`Soc::run_trajectory`] threads the fault
//!   plan through the call, never through the shard);
//! * **aggregate accounting** — each tenant accumulates a [`ShardStats`]
//!   ledger of everything it was served, and [`SocPool::report`] folds the
//!   ledgers into the pool-level account the serve stats endpoint and the
//!   benchmark harness read.
//!
//! The pool is passive: it owns the SoCs, the ledgers and the breakers but
//! no threads. The serve layer brings its own workers and makes one call
//! per request, [`SocPool::run`]: route, guard, execute, record.

use crate::breaker::{BreakerBoard, BreakerSnapshot, DEFAULT_COOLDOWN_NS};
use crate::error::SocError;
use crate::fault::{ChaosConfig, FaultKind};
use crate::runtime::{TrajectoryInputs, TrajectoryOutcome};
use crate::soc::Soc;
use pm_lower::{CompiledProgram, TargetMap};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// An execution ledger: one per tenant, and their fold (see
/// [`SocPool::report`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Requests served.
    pub requests: u64,
    /// Program invocations executed (a request may carry many).
    pub invocations: u64,
    /// Invocations whose dispatch saw at least one fault.
    pub replayed_invocations: u64,
    /// Faults injected across all requests.
    pub faults_injected: u64,
    /// Retry dispatches across all requests.
    pub retries: u64,
    /// DMA bytes re-transferred after faults.
    pub retried_dma_bytes: u64,
    /// Virtual manager time across all requests, nanoseconds.
    pub virtual_ns: u64,
    /// Devices taken down and re-lowered onto the host.
    pub fallbacks: u64,
    /// Simulated wall-clock across all requests, seconds.
    pub seconds: f64,
    /// Simulated energy across all requests, joules.
    pub energy_j: f64,
}

impl ShardStats {
    fn absorb(&mut self, outcome: &TrajectoryOutcome) {
        self.requests += 1;
        self.invocations += outcome.invocations;
        self.replayed_invocations += outcome.replayed_invocations;
        self.faults_injected += outcome.faults_injected;
        self.retries += outcome.retries;
        self.retried_dma_bytes += outcome.retried_dma_bytes;
        self.virtual_ns = self.virtual_ns.saturating_add(outcome.virtual_ns);
        self.fallbacks += outcome.fallbacks.len() as u64;
        self.seconds += outcome.total.seconds;
        self.energy_j += outcome.total.energy_j;
    }

    fn merge(&mut self, other: &ShardStats) {
        self.requests += other.requests;
        self.invocations += other.invocations;
        self.replayed_invocations += other.replayed_invocations;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.retried_dma_bytes += other.retried_dma_bytes;
        self.virtual_ns = self.virtual_ns.saturating_add(other.virtual_ns);
        self.fallbacks += other.fallbacks;
        self.seconds += other.seconds;
        self.energy_j += other.energy_j;
    }
}

/// Pool-level account: the per-tenant ledgers plus their fold.
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// All tenant ledgers folded together: every served request is
    /// recorded under exactly one tenant.
    pub total: ShardStats,
    /// Per-tenant ledgers (tenant order), so retry/fallback attribution
    /// survives aggregation and the soak report can prove tenant
    /// isolation numerically.
    pub tenants: Vec<(String, ShardStats)>,
    /// Per-shard breaker snapshots, in shard order (empty inner vectors
    /// for shards whose backends have never failed).
    pub breakers: Vec<Vec<BreakerSnapshot>>,
    /// The shards' price memos ([`Soc::price_stats`]) summed.
    pub price_memo: srdfg::CacheStats,
}

/// A fixed set of [`Soc`] shards with tenant-affinity routing and
/// pool-level accounting. Shareable across threads (`Soc` execution takes
/// `&self`; ledgers and breakers sit behind a [`Mutex`] each).
pub struct SocPool {
    shards: Vec<Soc>,
    tenants: Mutex<BTreeMap<String, ShardStats>>,
    boards: Mutex<Vec<BreakerBoard>>,
}

/// A poisoned lock still guards consistent data here: every critical
/// section is a fold that cannot panic halfway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl std::fmt::Debug for SocPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocPool").field("shards", &self.shards.len()).finish()
    }
}

impl SocPool {
    /// Builds a pool of `shards` SoCs (at least one), constructing each
    /// with `build(shard_index)`.
    pub fn new(shards: usize, build: impl Fn(usize) -> Soc) -> SocPool {
        let n = shards.max(1);
        SocPool {
            shards: (0..n).map(build).collect(),
            tenants: Mutex::new(BTreeMap::new()),
            boards: Mutex::new(vec![BreakerBoard::new(DEFAULT_COOLDOWN_NS); n]),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false — the constructor guarantees at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard index serving `tenant`: a stable content hash of the
    /// tenant name, so a tenant always lands on the same SoC regardless
    /// of request order or interleaving.
    pub fn shard_for(&self, tenant: &str) -> usize {
        let mut h = srdfg::FxHasher::default();
        tenant.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The SoC at `shard` (modulo the pool size, so routing can never
    /// index out of bounds).
    pub fn shard(&self, shard: usize) -> &Soc {
        &self.shards[shard % self.shards.len()]
    }

    /// Replaces every shard's breaker board with a fresh one cooling down
    /// for `cooldown_ns`. Tests and the soak harness shrink the (virtual)
    /// cool-down so open→half-open→closed cycles happen within a short
    /// deterministic run; calling it mid-flight discards breaker state.
    pub fn set_breaker_cooldown_ns(&self, cooldown_ns: u64) {
        for b in lock(&self.boards).iter_mut() {
            *b = BreakerBoard::new(cooldown_ns);
        }
    }

    /// Serves one request of `tenant`: routes it to the tenant's shard,
    /// steers it away from every backend whose breaker is open, runs the
    /// trajectory, and records the outcome in the tenant's ledger and the
    /// shard's breakers — the one place a served request commits.
    ///
    /// Steering adds the open backends to the request's
    /// [`ChaosConfig::force_down`], the host-fallback re-lowering a
    /// declared outage takes, so outputs stay byte-identical to the
    /// healthy path. A fallback the breakers forced is not a fresh failure
    /// (an open breaker steering traffic must not keep itself open), and
    /// its target reports no success either: only organic dispatches carry
    /// breaker information.
    ///
    /// Returns the outcome, the shard that served it, and how many targets
    /// the breakers steered it away from.
    ///
    /// # Errors
    ///
    /// Whatever [`Soc::run_trajectory`] returns; a failed request is not
    /// recorded.
    pub fn run(
        &self,
        tenant: &str,
        compiled: &CompiledProgram,
        mut chaos: ChaosConfig,
        targets: &TargetMap,
        inputs: &TrajectoryInputs<'_>,
    ) -> Result<(TrajectoryOutcome, usize, usize), SocError> {
        let shard = self.shard_for(tenant);
        let forced = lock(&self.boards)[shard].guard();
        chaos.force_down.extend(forced.iter().cloned());
        let outcome = self.shards[shard].run_trajectory(
            compiled,
            &HashMap::new(),
            &chaos,
            Some(targets),
            inputs,
        )?;
        lock(&self.tenants).entry(tenant.to_string()).or_default().absorb(&outcome);
        let mut boards = lock(&self.boards);
        let board = &mut boards[shard];
        board.advance(outcome.virtual_ns.max(1));
        for f in &outcome.fallbacks {
            if !forced.contains(&f.target) {
                let persistent = matches!(f.fault, FaultKind::DeviceDown { persistent: true });
                board.on_failure(&f.target, persistent);
            }
        }
        for p in &outcome.last.partitions {
            let fell_back = outcome.fallbacks.iter().any(|f| f.target == p.target);
            if !forced.contains(&p.target) && !fell_back {
                board.on_success(&p.target);
            }
        }
        Ok((outcome, shard, forced.len()))
    }

    /// Snapshot of every tenant ledger, their fold, and breaker states.
    pub fn report(&self) -> PoolReport {
        let tenants: Vec<_> =
            lock(&self.tenants).iter().map(|(name, stats)| (name.clone(), *stats)).collect();
        let mut total = ShardStats::default();
        for (_, s) in &tenants {
            total.merge(s);
        }
        let breakers = lock(&self.boards).iter().map(BreakerBoard::snapshot).collect();
        let mut price_memo = srdfg::CacheStats::default();
        for s in self.shards.iter().map(Soc::price_stats) {
            price_memo.hits += s.hits;
            price_memo.misses += s.misses;
            price_memo.inserts += s.inserts;
            price_memo.evictions += s.evictions;
            price_memo.entries += s.entries;
            price_memo.bytes += s.bytes;
            price_memo.capacity_bytes += s.capacity_bytes;
            price_memo.bypassed += s.bypassed;
        }
        PoolReport { total, tenants, breakers, price_memo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend as _;
    use crate::tabla::Tabla;
    use srdfg::Tensor;

    /// A DA reduction compiled for TABLA, so a shard has a breaker to trip.
    fn tabla_compiled() -> (CompiledProgram, TargetMap) {
        let src = "main(input float x[4], output float y) {
             index i[0:3];
             DA: y = sum[i](x[i]*x[i]);
         }";
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut targets = TargetMap::host_only(crate::cpu::Cpu::default().accel_spec());
        targets.set(Tabla::default().accel_spec());
        (crate::compiled(g, &targets), targets)
    }

    #[test]
    fn tenant_routing_is_stable() {
        let pool = SocPool::new(4, |_| Soc::new());
        assert_eq!(pool.len(), 4);
        for tenant in ["alice", "bob", "carol", ""] {
            let s = pool.shard_for(tenant);
            assert!(s < 4);
            assert_eq!(s, pool.shard_for(tenant), "same tenant must pin to the same shard");
        }
    }

    #[test]
    fn zero_shards_rounds_up_to_one() {
        let pool = SocPool::new(0, |_| Soc::new());
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
        assert_eq!(pool.shard_for("anyone"), 0);
    }

    #[test]
    fn ledgers_aggregate_across_shards() {
        let pool = SocPool::new(2, |_| Soc::with(vec![Box::new(Tabla::default())]));
        let (compiled, targets) = tabla_compiled();
        let feeds = HashMap::from([(
            "x".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        )]);
        let inputs = TrajectoryInputs { feeds: &feeds, state_seeds: &[], invocations: 3 };
        let run = |tenant: &str, chaos: ChaosConfig| {
            pool.run(tenant, &compiled, chaos, &targets, &inputs).unwrap()
        };
        let alice = "alice";
        let bob = ["bob", "carol", "dave", "erin"]
            .into_iter()
            .find(|t| pool.shard_for(t) != pool.shard_for(alice))
            .unwrap();

        let (healthy, shard, steered) = run(alice, ChaosConfig::off());
        assert_eq!((shard, steered), (pool.shard_for(alice), 0));
        // A declared outage trips the TABLA breaker of alice's shard, so
        // her next request is steered onto the host, with the same outputs.
        let (outage, _, _) = run(alice, ChaosConfig::off().with_down("TABLA"));
        assert_eq!(outage.fallbacks.len(), 1);
        let (steered_run, _, steered) = run(alice, ChaosConfig::off());
        assert_eq!(steered, 1);
        assert_eq!(steered_run.outputs, healthy.outputs);
        // The other shard's breakers never saw the outage.
        let (_, bob_shard, bob_steered) = run(bob, ChaosConfig::off());
        assert_eq!((bob_shard, bob_steered), (pool.shard_for(bob), 0));

        let report = pool.report();
        let ledger = |t: &str| report.tenants.iter().find(|(n, _)| n == t).unwrap().1;
        assert_eq!((ledger(alice).requests, ledger(alice).fallbacks), (3, 2));
        assert_eq!((ledger(bob).requests, ledger(bob).fallbacks), (1, 0));
        assert_eq!(report.total.requests, 4);
        assert_eq!(report.total.invocations, 12);
        assert_eq!(report.total.fallbacks, 2);
        assert_eq!(report.total.faults_injected, 0);
        assert_eq!(report.total.seconds, ledger(alice).seconds + ledger(bob).seconds);
        assert_eq!(report.total.energy_j, ledger(alice).energy_j + ledger(bob).energy_j);
        assert!(report.total.seconds > 0.0);
        let tabla = &report.breakers[shard][0];
        assert_eq!((tabla.target.as_str(), tabla.trips, tabla.steered), ("TABLA", 1, 1));
        assert!(report.breakers[bob_shard].is_empty());
    }
}
