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
//! * **aggregate accounting** — each shard accumulates a [`ShardStats`]
//!   ledger of everything it executed, and [`SocPool::report`] folds the
//!   ledgers into the pool-level account the serve stats endpoint and the
//!   benchmark harness read.
//!
//! The pool is passive: it owns the SoCs and the ledgers but no threads.
//! The serve layer brings its own workers and calls
//! [`SocPool::shard_for`] → [`SocPool::shard`] → [`SocPool::record`].

use crate::breaker::{BreakerBoard, BreakerSnapshot, DEFAULT_COOLDOWN_NS};
use crate::fault::FaultKind;
use crate::runtime::TrajectoryOutcome;
use crate::soc::Soc;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Per-shard execution ledger (see [`SocPool::report`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Requests executed on this shard.
    pub requests: u64,
    /// Program invocations executed (a request may carry many).
    pub invocations: u64,
    /// Invocations that faulted, rolled back and replayed.
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
    /// Folds one trajectory outcome into the ledger.
    pub fn absorb(&mut self, outcome: &TrajectoryOutcome) {
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

/// Pool-level account: the per-shard ledgers plus their fold.
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// One ledger per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// All shard ledgers folded together.
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
/// `&self`; ledgers sit behind a [`Mutex`]).
pub struct SocPool {
    shards: Vec<Soc>,
    ledgers: Mutex<Vec<ShardStats>>,
    tenants: Mutex<BTreeMap<String, ShardStats>>,
    boards: Mutex<Vec<BreakerBoard>>,
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
            ledgers: Mutex::new(vec![ShardStats::default(); n]),
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

    /// Folds a completed request's outcome into `shard`'s ledger.
    pub fn record(&self, shard: usize, outcome: &TrajectoryOutcome) {
        let mut ledgers = self.ledgers.lock().unwrap_or_else(|e| e.into_inner());
        let n = ledgers.len();
        ledgers[shard % n].absorb(outcome);
    }

    /// Replaces every shard's breaker board with a fresh one cooling down
    /// for `cooldown_ns`. Tests and the soak harness shrink the (virtual)
    /// cool-down so open→half-open→closed cycles happen within a short
    /// deterministic run; calling it mid-flight discards breaker state.
    pub fn set_breaker_cooldown_ns(&self, cooldown_ns: u64) {
        let mut boards = self.boards.lock().unwrap_or_else(|e| e.into_inner());
        for b in boards.iter_mut() {
            *b = BreakerBoard::new(cooldown_ns);
        }
    }

    /// The targets an admitted request on `shard` must steer away from:
    /// every backend whose breaker is open. The caller merges the set
    /// into its [`crate::fault::ChaosConfig::force_down`], which routes
    /// those backends' fragments through the same host-fallback
    /// re-lowering a mid-run outage uses — outputs stay byte-identical
    /// to the healthy path.
    pub fn breaker_guard(&self, shard: usize) -> BTreeSet<String> {
        let mut boards = self.boards.lock().unwrap_or_else(|e| e.into_inner());
        let n = boards.len();
        boards[shard % n].guard()
    }

    /// Folds a served request into the shard *and* tenant ledgers, and
    /// drives `shard`'s breakers from the outcome.
    ///
    /// `forced` is the set [`SocPool::breaker_guard`] returned when the
    /// request was admitted: fallbacks the guard itself forced are *not*
    /// counted as fresh failures (an open breaker steering traffic must
    /// not keep itself open), and their targets report no success either
    /// — only organic dispatches carry breaker information.
    pub fn record_served(
        &self,
        shard: usize,
        tenant: &str,
        outcome: &TrajectoryOutcome,
        forced: &BTreeSet<String>,
    ) {
        self.record(shard, outcome);
        {
            let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
            tenants.entry(tenant.to_string()).or_default().absorb(outcome);
        }
        let mut boards = self.boards.lock().unwrap_or_else(|e| e.into_inner());
        let n = boards.len();
        let board = &mut boards[shard % n];
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
    }

    /// Snapshot of every shard ledger plus the pool-level fold, tenant
    /// attribution, and breaker states.
    pub fn report(&self) -> PoolReport {
        let shards = self.ledgers.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut total = ShardStats::default();
        for s in &shards {
            total.merge(s);
        }
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, stats)| (name.clone(), *stats))
            .collect();
        let breakers = self
            .boards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(BreakerBoard::snapshot)
            .collect();
        let mut price_memo = srdfg::CacheStats::default();
        for s in self.shards.iter().map(Soc::price_stats) {
            price_memo.hits += s.hits;
            price_memo.misses += s.misses;
            price_memo.inserts += s.inserts;
            price_memo.evictions += s.evictions;
            price_memo.entries += s.entries;
            price_memo.units += s.units;
            price_memo.capacity_units += s.capacity_units;
            price_memo.bypassed += s.bypassed;
        }
        PoolReport { shards, total, tenants, breakers, price_memo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend as _;
    use crate::fault::ChaosConfig;
    use crate::runtime::TrajectoryInputs;
    use pm_lower::{compile_program, lower, TargetMap};
    use srdfg::Tensor;
    use std::collections::HashMap;

    fn host_compiled() -> (pm_lower::CompiledProgram, TargetMap) {
        let src = "main(input float x[4], output float y) {
             index i[0:3];
             y = sum[i](x[i]*x[i]);
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let targets = TargetMap::host_only(crate::cpu::Cpu::default().accel_spec());
        lower(&mut g, &targets).unwrap();
        (compile_program(&g, &targets).unwrap(), targets)
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
        let pool = SocPool::new(2, |_| Soc::new());
        let (compiled, targets) = host_compiled();
        let feeds = HashMap::from([(
            "x".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        )]);
        let inputs = TrajectoryInputs { feeds: &feeds, state_seeds: &[], invocations: 3 };
        for shard in [0usize, 0, 1] {
            let out = pool
                .shard(shard)
                .run_trajectory(
                    &compiled,
                    &HashMap::new(),
                    &ChaosConfig::off(),
                    Some(&targets),
                    &inputs,
                )
                .unwrap();
            pool.record(shard, &out);
        }
        let report = pool.report();
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[0].requests, 2);
        assert_eq!(report.shards[1].requests, 1);
        assert_eq!(report.total.requests, 3);
        assert_eq!(report.total.invocations, 9);
        assert_eq!(report.total.faults_injected, 0);
        assert!(report.total.seconds > 0.0);
        assert!(report.total.energy_j > 0.0);
    }
}
