//! The multi-acceleration SoC (paper §V.A.3, "Multi-acceleration").
//!
//! "All accelerators are cascaded as a single System On Chip, comprised of
//! memory and a host. A light-weight manager executes on the host, ensuring
//! data dependencies between different accelerators and initiating DMA
//! transfers between DRAM and local accelerator memory."
//!
//! [`Soc::run`] executes one invocation of a compiled multi-domain program:
//! each partition runs on its backend (or on the host), every `load`/
//! `store` fragment becomes a DMA transfer, and the host manager adds its
//! own dispatch overhead. Kernels of an end-to-end application are
//! data-dependent (sense → perceive → act), so partitions execute
//! sequentially — which is precisely why Amdahl's law bites when only some
//! domains are accelerated (paper Fig. 10-12).
//!
//! The dispatch loop is *resilient* (DESIGN.md §10): a [`ChaosConfig`]
//! threads a deterministic fault plan through every backend, fragments are
//! retried under exponential backoff on a virtual clock, and a device that
//! keeps failing is marked down and its work re-lowered onto the host via
//! Algorithm 1 ([`pm_lower::relower_without`]). With
//! [`ChaosConfig::off()`] — the default for [`Soc::run`] — the account is
//! identical to a fault-free run.

use crate::backend::{Backend, DmaModel};
use crate::cpu::Cpu;
use crate::error::SocError;
use crate::fault::{
    backoff_delay_ns, ChaosConfig, ChaosProfile, FaultKind, VirtualClock, FRAGMENT_DEADLINE_NS,
};
use crate::model::{PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, CompiledProgram, FragmentKind, TargetMap};
use pmlang::Domain;
use srdfg::{CacheStats, ContentLru, SrDfg};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Weak};

/// Host-manager dispatch overhead per fragment, virtual nanoseconds.
const DISPATCH_NS: u64 = 2_000;
/// Entries the price memo holds, one per (partition, hints, expert) priced.
/// An entry is a 32-byte estimate and two weak handles, so this is a bound
/// on bookkeeping, not on memory that matters; it sits above the few
/// hundred programs a serving process keeps resident.
const PRICE_MEMO_ENTRIES: usize = 1024;
/// What one price-memo entry is charged: its key and value, which own no
/// heap of their own. Every entry costs the same, so the memo's byte
/// budget is [`PRICE_MEMO_ENTRIES`] of these.
const PRICE_ENTRY_BYTES: usize = std::mem::size_of::<PriceKey>() + std::mem::size_of::<Priced>();

/// Per-partition result within a SoC run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Target name that executed the partition.
    pub target: String,
    /// The partition's domain (`None` = host glue).
    pub domain: Option<Domain>,
    /// Compute estimate.
    pub compute: PerfEstimate,
    /// DMA estimate for this partition's transfers (including re-issued
    /// transfers after DMA faults).
    pub dma: PerfEstimate,
    /// Total fragment dispatch attempts (0 for host partitions, which the
    /// manager does not dispatch over the fabric).
    pub attempts: u64,
    /// Dispatches beyond the first attempt of each fragment.
    pub retries: u64,
    /// Faults injected into this partition.
    pub faults_seen: u64,
    /// DMA bytes re-transferred after corruption/truncation faults.
    pub retried_dma_bytes: u64,
    /// Virtual time the manager spent dispatching this partition
    /// (transfers, stall deadlines, backoff).
    pub virtual_ns: u64,
}

/// One accelerator taken out of the run and re-lowered onto the host.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackRecord {
    /// The downed target.
    pub target: String,
    /// The fault that took it down.
    pub fault: FaultKind,
    /// Fragment index that exhausted its budget (0 for outages declared
    /// before dispatch).
    pub fragment: usize,
    /// The fragment's operation (`<declared>` for pre-dispatch outages).
    pub op: String,
    /// Dispatch attempts made before giving up (0 for declared outages).
    pub attempts: u32,
}

/// The end-to-end account of one program invocation on the SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocReport {
    /// Per-partition breakdown.
    pub partitions: Vec<PartitionReport>,
    /// Total wall-clock/energy for the invocation.
    pub total: PerfEstimate,
    /// Share of total time spent in communication (DMA).
    pub comm_fraction: f64,
    /// The chaos profile this run executed under.
    pub profile: ChaosProfile,
    /// The chaos seed (0 when chaos is off).
    pub chaos_seed: u64,
    /// Total faults injected, including those on partitions that were
    /// subsequently re-lowered away.
    pub faults_injected: u64,
    /// Total retry dispatches.
    pub retries: u64,
    /// Total DMA bytes re-transferred after faults.
    pub retried_dma_bytes: u64,
    /// Total virtual manager time (dispatch + stalls + backoff).
    pub virtual_ns: u64,
    /// Accelerators taken down and re-lowered onto the host, in the order
    /// they failed.
    pub fallbacks: Vec<FallbackRecord>,
}

/// Result of a chaos run: the report plus the re-lowered program, when
/// host fallback had to rewrite the partitioning.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The account of the (final, successful) dispatch schedule.
    pub report: SocReport,
    /// The host-fallback recompilation, if any device went down. Its
    /// graph computes bit-identical results to the original.
    pub relowered: Option<CompiledProgram>,
}

/// A partition abandoned because a fragment exhausted its retry or
/// deadline budget (internal): the record the report keeps, and which of
/// the two budgets ran out.
struct Outage {
    record: FallbackRecord,
    budget_exceeded: bool,
}

impl Outage {
    /// The error the outage is when there is no target map to re-lower
    /// with; `spent_ns` is the abandoned partition's virtual time.
    fn error(&self, spent_ns: u64, budget_ns: u64) -> SocError {
        let FallbackRecord { target, fault, fragment, op, attempts } = self.record.clone();
        if self.budget_exceeded {
            SocError::DeadlineExceeded { target, fragment, op, budget_ns, spent_ns }
        } else {
            SocError::RetriesExhausted { target, fragment, op, attempts, fault }
        }
    }
}

/// Which pricing question a memo entry answers: a partition of a compiled
/// program, named by *identity* — the addresses behind the program's two
/// [`Arc`]s and the partition's index — plus everything else the estimate
/// reads (the expert flag and the hint values, floats by bit pattern).
/// `CompiledProgram` is immutable behind those `Arc`s, so equal addresses
/// are equal content for as long as the allocations live, and the entry's
/// [`Weak`] guards keep them from being reused while it is resident.
#[derive(Debug, PartialEq, Hash)]
struct PriceKey {
    graph: usize,
    partitions: usize,
    index: usize,
    expert: bool,
    hints: [Option<u64>; 6],
}

impl PriceKey {
    fn new(compiled: &CompiledProgram, index: usize, expert: bool, h: &WorkloadHints) -> Self {
        // Destructured so that a new hint field cannot be left out of the key.
        let WorkloadHints {
            effective_ops,
            effective_bytes,
            edges,
            vertices,
            gpu_batch,
            native_factor,
        } = *h;
        PriceKey {
            graph: Arc::as_ptr(&compiled.graph) as usize,
            partitions: Arc::as_ptr(&compiled.partitions).cast::<AccProgram>() as usize,
            index,
            expert,
            hints: [
                effective_ops,
                effective_bytes,
                edges,
                vertices,
                gpu_batch,
                native_factor.map(f64::to_bits),
            ],
        }
    }
}

/// A memoised compute price. The guards hold the two allocations the key
/// names (not their contents: a dropped program stays dropped), so no new
/// program can be handed either address while this entry can still hit.
#[derive(Debug, Clone)]
struct Priced {
    compute: PerfEstimate,
    _graph: Weak<SrDfg>,
    _partitions: Weak<[AccProgram]>,
}

/// A host plus a set of cascaded accelerator backends.
pub struct Soc {
    /// Attached backends under their target-spec names, resolved at
    /// `attach`: dispatch compares the name instead of building a whole
    /// `AcceleratorSpec` (a heap string per supported op) to read it.
    backends: Vec<(String, Box<dyn Backend>)>,
    host: Cpu,
    /// The host's target-spec name, resolved at construction.
    host_target: String,
    dma: DmaModel,
    /// Energy per DMA byte (interconnect + DRAM access), joules.
    dma_energy_per_byte: f64,
    /// Host-manager power draw while orchestrating, watts.
    manager_power_w: f64,
    /// Optional lowering template cache for fault-recovery re-lowering.
    /// When set (usually to the compiling driver's cache handle), a
    /// device-down re-lower instantiates the templates the original
    /// compilation populated instead of re-expanding under recovery
    /// latency pressure.
    template_cache: Option<srdfg::TemplateCache>,
    /// Compute prices already worked out on this SoC. A price is a pure
    /// function of (backend, partition, graph, hints), so re-invoking a
    /// program looks it up instead of re-walking the graph; the fragment
    /// loop around it — fuel, faults, retries, DMA — is never memoised.
    prices: ContentLru<PriceKey, Priced>,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("backends", &self.backends.iter().map(|(_, b)| b.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Soc {
    fn default() -> Self {
        Soc::new()
    }
}

impl Soc {
    /// Creates a SoC with only the host CPU.
    pub fn new() -> Self {
        let host = Cpu::default();
        Soc {
            backends: Vec::new(),
            host_target: host.accel_spec().name,
            host,
            dma: DmaModel::default(),
            dma_energy_per_byte: 5.0e-11, // 50 pJ/byte
            manager_power_w: 5.0,
            template_cache: None,
            prices: ContentLru::with_capacity(PRICE_MEMO_ENTRIES * PRICE_ENTRY_BYTES),
        }
    }

    /// Shares a lowering template cache (typically the compiler driver's)
    /// with the fault-recovery path; see [`pm_lower::relower_without`].
    pub fn with_template_cache(&mut self, cache: srdfg::TemplateCache) -> &mut Self {
        self.template_cache = Some(cache);
        self
    }

    /// Attaches an accelerator backend (replacing any previous backend of
    /// the same name). Prices memoised so far are forgotten: the backend
    /// is part of what they were a function of.
    pub fn attach(&mut self, backend: impl Backend + 'static) -> &mut Self {
        self.attach_boxed(Box::new(backend));
        self
    }

    fn attach_boxed(&mut self, backend: Box<dyn Backend>) {
        let name = backend.accel_spec().name;
        self.backends.retain(|(attached, _)| *attached != name);
        self.backends.push((name, backend));
        self.prices = ContentLru::with_capacity(PRICE_MEMO_ENTRIES * PRICE_ENTRY_BYTES);
    }

    /// A SoC with `backends` (a slice of [`crate::complement`]) attached
    /// in order.
    pub fn with(backends: Vec<Box<dyn Backend>>) -> Soc {
        let mut soc = Soc::new();
        backends.into_iter().for_each(|backend| soc.attach_boxed(backend));
        soc
    }

    /// Counters of the price memo: a hit is a partition dispatched without
    /// calling its backend's `estimate`, a miss is one that was priced.
    pub fn price_stats(&self) -> CacheStats {
        self.prices.stats()
    }

    /// The first backend serving `domain`, if attached.
    pub fn backend(&self, domain: Domain) -> Option<&dyn Backend> {
        self.backends.iter().find(|(_, b)| b.domain() == domain).map(|(_, b)| b.as_ref())
    }

    /// The backend with the given target name, if attached.
    pub fn backend_by_name(&self, name: &str) -> Option<&dyn Backend> {
        self.backends.iter().find(|(attached, _)| attached == name).map(|(_, b)| b.as_ref())
    }

    /// The host CPU model.
    pub fn host(&self) -> &Cpu {
        &self.host
    }

    /// Names of the attached backends (target-spec names, attach order).
    pub fn attached_names(&self) -> Vec<String> {
        self.backends.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Estimates one invocation of `compiled`, with per-domain workload
    /// hints (sparse sizes etc.).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::MissingBackend`] when a partition was compiled
    /// for an accelerator that is not attached (with a "did you mean"
    /// suggestion), or [`SocError::MalformedFragment`] when a fragment
    /// violates the DMA marshalling contract.
    pub fn run(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
    ) -> Result<SocReport, SocError> {
        Ok(self.dispatch(compiled, hints, false, &ChaosConfig::off(), None)?.report)
    }

    /// Like [`Soc::run`] but pricing each accelerated partition at its
    /// hand-optimized ("expert") implementation — the paper's Fig. 9/12
    /// optimal baseline. Host partitions are unchanged (the CPU baseline
    /// is already the native stack).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Soc::run`].
    pub fn run_expert(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
    ) -> Result<SocReport, SocError> {
        Ok(self.dispatch(compiled, hints, true, &ChaosConfig::off(), None)?.report)
    }

    /// Runs one invocation under fault injection with host-fallback
    /// re-lowering.
    ///
    /// Devices declared down (via [`ChaosConfig::force_down`] or the
    /// hostile profile's persistent-outage draw) are re-lowered away
    /// before dispatch; devices that exhaust a fragment's retry or
    /// deadline budget are marked down and re-lowered mid-run. `targets`
    /// is the map the program was compiled against — required for
    /// fallback; pass `None` to turn exhaustion into a structured error
    /// instead.
    ///
    /// The whole schedule is deterministic: the same `compiled`, config
    /// and attached backends produce an identical [`SocReport`].
    ///
    /// # Errors
    ///
    /// All [`Soc::run`] conditions, plus [`SocError::RetriesExhausted`] /
    /// [`SocError::DeadlineExceeded`] / [`SocError::FallbackUnavailable`]
    /// when a device fails without `targets`, and [`SocError::Relower`]
    /// if fallback recompilation fails.
    pub fn run_chaos(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        cfg: &ChaosConfig,
        targets: Option<&TargetMap>,
    ) -> Result<ChaosOutcome, SocError> {
        self.dispatch(compiled, hints, false, cfg, targets)
    }

    /// The host manager's one dispatch loop, behind [`Soc::run`],
    /// [`Soc::run_expert`] and [`Soc::run_chaos`]: sweep every partition
    /// in order (the host manager runs data-dependent kernels one after
    /// another); if any was abandoned, re-lower its target away and sweep
    /// again. The first error in partition order ends the run.
    fn dispatch(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        expert: bool,
        cfg: &ChaosConfig,
        targets: Option<&TargetMap>,
    ) -> Result<ChaosOutcome, SocError> {
        let mut down: Vec<String> = Vec::new();
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();
        // Partitions given up on in earlier rounds: their faults, retries
        // and virtual time count; their prices do not.
        let mut abandoned: Vec<PartitionReport> = Vec::new();

        // Persistent outages known before dispatch: forced downs and the
        // hostile profile's device-down draw. Only targets the program
        // actually uses matter.
        for (name, _) in &self.backends {
            let declared = cfg.force_down.contains(name) || cfg.plan.device_down(name);
            if declared && compiled.partitions.iter().any(|p| p.target == *name) {
                fallbacks.push(FallbackRecord {
                    target: name.clone(),
                    fault: FaultKind::DeviceDown { persistent: true },
                    fragment: 0,
                    op: "<declared>".to_string(),
                    attempts: 0,
                });
                down.push(name.clone());
            }
        }
        let mut relowered: Option<CompiledProgram> = None;
        if let Some(first) = down.first() {
            let fail = SocError::FallbackUnavailable {
                target: first.clone(),
                detail: "no target map provided for host re-lowering".to_string(),
            };
            relowered = Some(self.relower_or(compiled, targets, &down, fail)?);
        }

        // Each round either completes or marks at least one more target
        // down, so the loop is bounded by the number of backends; the
        // counter is a defensive backstop.
        for _ in 0..=self.backends.len() + 1 {
            cfg.budget.charge("dispatch", 1).map_err(SocError::BudgetExhausted)?;
            let prog = relowered.as_ref().unwrap_or(compiled);
            let mut parts = Vec::with_capacity(prog.partitions.len());
            let mut outages = Vec::new();
            for index in 0..prog.partitions.len() {
                match self.simulate_partition(index, prog, hints, expert, cfg)? {
                    (report, None) => parts.push(report),
                    (report, Some(outage)) => outages.push((report, outage)),
                }
            }
            let Some((first, outage)) = outages.first() else {
                let (profile, seed) = (cfg.plan.profile(), cfg.plan.seed());
                let report = Self::assemble(parts, &abandoned, profile, seed, fallbacks);
                return Ok(ChaosOutcome { report, relowered });
            };
            let fail = outage.error(first.virtual_ns, cfg.fragment_budget_ns());
            for (report, outage) in outages {
                if !down.contains(&outage.record.target) {
                    down.push(outage.record.target.clone());
                }
                fallbacks.push(outage.record);
                abandoned.push(report);
            }
            relowered = Some(self.relower_or(compiled, targets, &down, fail)?);
        }
        Err(SocError::Relower { detail: "host-fallback loop did not converge".to_string() })
    }

    fn relower_or(
        &self,
        compiled: &CompiledProgram,
        targets: Option<&TargetMap>,
        down: &[String],
        fail: SocError,
    ) -> Result<CompiledProgram, SocError> {
        match targets {
            None => Err(fail),
            Some(t) => pm_lower::relower_without(compiled, t, down, self.template_cache.as_ref())
                .map_err(|e| SocError::Relower { detail: e.to_string() }),
        }
    }

    fn assemble(
        partitions: Vec<PartitionReport>,
        abandoned: &[PartitionReport],
        profile: ChaosProfile,
        chaos_seed: u64,
        fallbacks: Vec<FallbackRecord>,
    ) -> SocReport {
        let mut total = PerfEstimate::default();
        let mut dma_seconds = 0.0f64;
        for report in &partitions {
            total = total.then(&report.compute).then(&report.dma);
            dma_seconds += report.dma.seconds;
        }
        let (mut faults_injected, mut retries, mut retried_dma_bytes) = (0, 0, 0);
        let mut virtual_ns = 0u64;
        for report in abandoned.iter().chain(&partitions) {
            faults_injected += report.faults_seen;
            retries += report.retries;
            retried_dma_bytes += report.retried_dma_bytes;
            virtual_ns = virtual_ns.saturating_add(report.virtual_ns);
        }
        let comm_fraction = if total.seconds > 0.0 { dma_seconds / total.seconds } else { 0.0 };
        SocReport {
            partitions,
            total,
            comm_fraction,
            profile,
            chaos_seed,
            faults_injected,
            retries,
            retried_dma_bytes,
            virtual_ns,
            fallbacks,
        }
    }

    /// The compute price of partition `index` on `backend` (`None` = the
    /// host): looked up by identity, else estimated — outside the memo's
    /// lock, so two threads that miss together both compute the same
    /// answer and the second insert refreshes the first. A miss checks the
    /// fragment stream against the contract a backend prices against
    /// ([`Fragment::defect`](pm_lower::Fragment::defect)) first, so a hit —
    /// the same immutable partition — pays nothing for it.
    fn price(
        &self,
        compiled: &CompiledProgram,
        index: usize,
        backend: Option<&dyn Backend>,
        h: &WorkloadHints,
        expert: bool,
    ) -> Result<PerfEstimate, SocError> {
        let key = PriceKey::new(compiled, index, expert, h);
        let fingerprint = srdfg::FxBuildHasher::default().hash_one(&key);
        if let Some(hit) = self.prices.lookup(fingerprint, &key) {
            return Ok(hit.compute);
        }
        let part = &compiled.partitions[index];
        for (fragment, f) in part.fragments.iter().enumerate() {
            if let Some(detail) = f.defect(&compiled.graph) {
                let target = part.target.clone();
                return Err(SocError::MalformedFragment { target, fragment, detail });
            }
        }
        let compute = match backend {
            Some(backend) if expert => backend.estimate_expert(part, &compiled.graph, h),
            Some(backend) => backend.estimate(part, &compiled.graph, h),
            None => {
                // Unaccelerated domains and host glue run on the CPU.
                let mut est = self.host.estimate(part, &compiled.graph, h);
                if expert {
                    // The hand-tuned reference is native C against the
                    // vendor libraries, ~15% tighter than the code the
                    // generic stack emits for the host.
                    est.seconds *= 0.85;
                    est.energy_j *= 0.85;
                    est.cycles = (est.cycles as f64 * 0.85) as u64;
                }
                est
            }
        };
        let priced = Priced {
            compute,
            _graph: Arc::downgrade(&compiled.graph),
            _partitions: Arc::downgrade(&compiled.partitions),
        };
        self.prices.insert(fingerprint, key, PRICE_ENTRY_BYTES, priced);
        Ok(compute)
    }

    /// Prices partition `index` and dispatches its fragments under `cfg`'s
    /// fault plan. The outage, when there is one, names the fragment that
    /// exhausted its budget; the report then accounts the partition up to
    /// that point.
    fn simulate_partition(
        &self,
        index: usize,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        expert: bool,
        cfg: &ChaosConfig,
    ) -> Result<(PartitionReport, Option<Outage>), SocError> {
        let part = &compiled.partitions[index];
        let default_hints = WorkloadHints::default();
        let h = hints.get(&part.domain).unwrap_or(&default_hints);
        // The partition records which target its fragments were compiled
        // for; pick the matching backend, else the host (an unaccelerated
        // domain compiles against the host spec).
        let backend = self.backend_by_name(&part.target);
        if backend.is_none() && part.target != self.host_target {
            return Err(SocError::missing_backend(
                part.target.clone(),
                part.domain,
                self.attached_names(),
            ));
        }
        let mut r = PartitionReport {
            target: backend.map_or(self.host.name(), |b| b.name()).to_string(),
            domain: part.domain,
            compute: self.price(compiled, index, backend, h, expert)?,
            dma: PerfEstimate::default(),
            attempts: 0,
            retries: 0,
            faults_seen: 0,
            retried_dma_bytes: 0,
            virtual_ns: 0,
        };
        // DMA transfers and fragment dispatch: only real when the
        // partition runs on an accelerator (host-resident data needs no
        // DMA, and the host manager does not dispatch to itself).
        let Some(backend) = backend else {
            return Ok((r, None));
        };
        let mut clock = VirtualClock::new();
        for (idx, frag) in part.fragments.iter().enumerate() {
            let is_dma = frag.kind != FragmentKind::Compute;
            // `param` and `state` data are resident in the accelerator's
            // local memory (loaded once, amortized across the run) — this
            // is precisely what PMLang's type modifiers tell the stack
            // (paper §II.A). Only `input`/`output`/intermediate flows
            // cross the DMA per invocation, and only per-invocation
            // dispatches are fault-injected.
            let resident = is_dma
                && frag.arg.as_ref().is_some_and(|a| {
                    matches!(a.modifier(), srdfg::Modifier::Param | srdfg::Modifier::State)
                });
            if resident {
                continue;
            }
            let (bytes, transfer_ns) = if is_dma {
                let bytes = frag.bytes();
                let secs = self.dma.transfer_seconds(bytes);
                r.dma.seconds += secs;
                r.dma.energy_j +=
                    bytes as f64 * self.dma_energy_per_byte + secs * self.manager_power_w;
                r.dma.dma_bytes += bytes;
                (bytes, (secs * 1e9) as u64)
            } else {
                (0, DISPATCH_NS)
            };
            // Resilient dispatch: retry faulting fragments under
            // exponential backoff until success, retry exhaustion, or the
            // per-fragment virtual-time budget runs out.
            let mut attempt: u32 = 1;
            let mut spent: u64 = 0;
            loop {
                // Partitions are swept in order, so which one's charge
                // exhausts the fuel is a pure function of the program;
                // the stage is `dispatch` for all of them because the
                // wire error names the stage, not the partition.
                cfg.budget.charge("dispatch", 1).map_err(SocError::BudgetExhausted)?;
                r.attempts += 1;
                let Some(kind) = cfg.plan.fault_for(backend.name(), idx, frag.kind, attempt) else {
                    clock.advance(transfer_ns);
                    break;
                };
                r.faults_seen += 1;
                let cost = match kind {
                    FaultKind::FragmentStall => FRAGMENT_DEADLINE_NS,
                    _ => transfer_ns,
                };
                clock.advance(cost);
                spent += cost;
                let budget_exceeded = spent > cfg.fragment_budget_ns();
                if !kind.retryable() || attempt > cfg.max_retries || budget_exceeded {
                    r.virtual_ns = clock.now_ns();
                    let record = FallbackRecord {
                        target: part.target.clone(),
                        fault: kind,
                        fragment: idx,
                        op: frag.op(&compiled.graph).to_string(),
                        attempts: attempt,
                    };
                    let budget_exceeded = budget_exceeded && kind.retryable();
                    return Ok((r, Some(Outage { record, budget_exceeded })));
                }
                // A corrupted or truncated transfer is re-issued in full:
                // the retry pays the DMA cost again.
                if matches!(kind, FaultKind::DmaCorruption | FaultKind::DmaTruncation) {
                    let secs = self.dma.transfer_seconds(bytes);
                    r.dma.seconds += secs;
                    r.dma.energy_j +=
                        bytes as f64 * self.dma_energy_per_byte + secs * self.manager_power_w;
                    r.dma.dma_bytes += bytes;
                    r.retried_dma_bytes += bytes;
                }
                let delay = backoff_delay_ns(attempt);
                clock.advance(delay);
                spent += delay;
                r.retries += 1;
                attempt += 1;
            }
        }
        r.virtual_ns = clock.now_ns();
        Ok((r, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deco::Deco;
    use crate::tabla::Tabla;
    use pm_lower::TargetMap;

    /// A two-domain pipeline: DSP filter feeding a DA classifier.
    fn compiled_two_domain(accelerate: &[Domain]) -> (CompiledProgram, TargetMap) {
        let src = "filt(input float x[1024], param float h[16], output float y[1009]) {
             index i[0:1008], k[0:15];
             y[i] = sum[k](h[k]*x[i+k]);
         }
         clas(input float f[1009], param float W[64][1009], param float v[64],
              output float c) {
             index i[0:1008], j[0:63];
             float hid[64];
             hid[j] = sigmoid(sum[i](W[j][i]*f[i]));
             c = sigmoid(sum[j](v[j]*hid[j]));
         }
         main(input float sig[1024], param float taps[16],
              param float W[64][1009], param float v[64], output float cls) {
             float feat[1009];
             DSP: filt(sig, taps, feat);
             DA: clas(feat, W, v, cls);
         }";
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = Cpu::default().accel_spec();
        let mut targets = TargetMap::host_only(host);
        if accelerate.contains(&Domain::Dsp) {
            targets.set(Deco::default().accel_spec());
        }
        if accelerate.contains(&Domain::DataAnalytics) {
            targets.set(Tabla::default().accel_spec());
        }
        (crate::compiled(g, &targets), targets)
    }

    fn soc() -> Soc {
        let mut s = Soc::new();
        s.attach(Deco::default());
        s.attach(Tabla::default());
        s
    }

    #[test]
    fn accelerating_both_beats_one() {
        let s = soc();
        let hints = HashMap::new();
        let none = s.run(&compiled_two_domain(&[]).0, &hints).unwrap();
        let dsp_only = s.run(&compiled_two_domain(&[Domain::Dsp]).0, &hints).unwrap();
        let both =
            s.run(&compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]).0, &hints).unwrap();
        // Fully accelerated is fastest in energy (the paper's headline
        // cross-domain claim).
        assert!(both.total.energy_j < none.total.energy_j);
        assert!(both.total.energy_j < dsp_only.total.energy_j);
    }

    #[test]
    fn unaccelerated_partition_falls_back_to_host() {
        let s = soc();
        let report = s.run(&compiled_two_domain(&[Domain::Dsp]).0, &HashMap::new()).unwrap();
        let da =
            report.partitions.iter().find(|p| p.domain == Some(Domain::DataAnalytics)).unwrap();
        assert_eq!(da.target, "Xeon E-2176G");
        assert_eq!(da.dma.dma_bytes, 0, "host partitions need no DMA");
        let dsp = report.partitions.iter().find(|p| p.domain == Some(Domain::Dsp)).unwrap();
        assert_eq!(dsp.target, "DECO");
        assert!(dsp.dma.dma_bytes > 0);
    }

    #[test]
    fn expert_run_is_never_slower() {
        let s = soc();
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let normal = s.run(&compiled, &HashMap::new()).unwrap();
        let expert = s.run_expert(&compiled, &HashMap::new()).unwrap();
        assert!(expert.total.seconds <= normal.total.seconds * 1.0001);
        assert!(expert.total.energy_j <= normal.total.energy_j * 1.0001);
    }

    #[test]
    fn resident_param_and_state_data_skip_dma() {
        // A kernel whose only large operand is a `param` weight matrix:
        // the per-invocation DMA must only move the small input/output.
        let src = "clas(input float x[64], param float W[256][64], output float y[256]) {
             index i[0:63], j[0:255];
             y[j] = sum[i](W[j][i]*x[i]);
         }
         main(input float x[64], param float W[256][64], output float y[256]) {
             DA: clas(x, W, y);
         }";
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut targets = TargetMap::host_only(Cpu::default().accel_spec());
        targets.set(Tabla::default().accel_spec());
        let compiled = crate::compiled(g, &targets);
        let s = soc();
        let report = s.run(&compiled, &HashMap::new()).unwrap();
        let da =
            report.partitions.iter().find(|p| p.domain == Some(Domain::DataAnalytics)).unwrap();
        // x (256 B) + y (1 KiB) cross the DMA; W (64 KiB) must not.
        assert!(da.dma.dma_bytes <= 2048, "moved {} bytes", da.dma.dma_bytes);
        assert!(da.dma.dma_bytes >= 256 + 1024, "moved {} bytes", da.dma.dma_bytes);
    }

    #[test]
    fn communication_fraction_is_reported() {
        let s = soc();
        let report = s
            .run(&compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]).0, &HashMap::new())
            .unwrap();
        assert!(report.comm_fraction > 0.0 && report.comm_fraction < 1.0);
    }

    #[test]
    fn missing_backend_is_an_error_with_a_suggestion() {
        // Compile against a typo'd spec name; the SoC has the real TABLA
        // attached, so the error should suggest it.
        let src = "main(input float x[4], param float w[4], output float y) {
             index i[0:3];
             DA: y = sum[i](w[i]*x[i]);
         }";
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut spec = Tabla::default().accel_spec();
        spec.name = "TABAL".to_string();
        let mut targets = TargetMap::host_only(Cpu::default().accel_spec());
        targets.set(spec);
        let compiled = crate::compiled(g, &targets);
        // Attached a second time, TABLA is still listed once.
        let err = soc().attach(Tabla::default()).run(&compiled, &HashMap::new()).unwrap_err();
        match &err {
            SocError::MissingBackend { target, suggestion, attached, .. } => {
                assert_eq!(target, "TABAL");
                assert_eq!(suggestion.as_deref(), Some("TABLA"));
                assert_eq!(attached, &["DECO", "TABLA"]);
            }
            other => panic!("expected MissingBackend, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean `TABLA`?"));
    }

    #[test]
    fn reattaching_a_backend_replaces_the_one_dispatched() {
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let wide = || Tabla { pus: 2 * Tabla::default().pus, ..Tabla::default() };
        let mut s = soc();
        let narrow = s.run(&compiled, &HashMap::new()).unwrap();
        s.attach(wide()).attach(wide());
        assert_eq!(s.attached_names(), ["DECO", "TABLA"]);
        assert_eq!(s.backend_by_name("TABLA").map(|b| b.name()), Some("TABLA"));
        assert!(s.backend_by_name("TABAL").is_none());
        let served = s.run(&compiled, &HashMap::new()).unwrap();
        let mut fresh = Soc::new();
        fresh.attach(Deco::default()).attach(wide());
        assert_eq!(served, fresh.run(&compiled, &HashMap::new()).unwrap());
        assert_ne!(served, narrow, "twice the PUs must not cost the same");
    }

    /// Runs `compiled` after `edit` rewrote the first `kind` fragment of its
    /// first partition, and returns the error with that fragment's index.
    fn run_edited(
        compiled: CompiledProgram,
        kind: FragmentKind,
        edit: impl FnOnce(&mut pm_lower::Fragment),
    ) -> (SocError, usize) {
        let mut parts = compiled.partitions.to_vec();
        let index = parts[0].fragments.iter().position(|f| f.kind == kind).expect("fragment");
        edit(&mut parts[0].fragments[index]);
        let compiled = CompiledProgram { graph: compiled.graph, partitions: parts.into() };
        (soc().run(&compiled, &HashMap::new()).unwrap_err(), index)
    }

    fn assert_malformed(err: &SocError, index: usize, what: &str) {
        match err {
            SocError::MalformedFragment { fragment, detail, .. } => {
                assert_eq!(*fragment, index);
                assert!(detail.contains(what), "{detail}");
            }
            other => panic!("expected MalformedFragment, got {other:?}"),
        }
    }

    #[test]
    fn a_compute_fragment_naming_a_removed_node_is_a_typed_error() {
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let id = compiled.partitions[0].fragments.iter().find_map(|f| f.node).unwrap();
        let mut graph = (*compiled.graph).clone();
        graph.remove_node(id);
        let compiled = CompiledProgram { graph: Arc::new(graph), partitions: compiled.partitions };
        let (err, index) = run_edited(compiled, FragmentKind::Compute, |_| {});
        assert_malformed(&err, index, "removed node");
    }

    #[test]
    fn a_compute_fragment_naming_no_node_is_a_typed_error() {
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let (err, index) = run_edited(compiled, FragmentKind::Compute, |f| f.node = None);
        assert_malformed(&err, index, "names no node");
    }

    #[test]
    fn a_dma_fragment_without_its_edge_is_a_typed_error() {
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let (err, index) = run_edited(compiled, FragmentKind::Load, |f| f.arg = None);
        assert_malformed(&err, index, "no edge to marshal");
    }

    #[test]
    fn off_chaos_matches_plain_run_exactly() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let plain = s.run(&compiled, &HashMap::new()).unwrap();
        let chaos =
            s.run_chaos(&compiled, &HashMap::new(), &ChaosConfig::off(), Some(&targets)).unwrap();
        assert!(chaos.relowered.is_none());
        assert_eq!(plain, chaos.report);
        assert_eq!(plain.faults_injected, 0);
        assert_eq!(plain.retries, 0);
    }

    #[test]
    fn transient_chaos_retries_and_is_deterministic() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        // The draw is deterministic; scan a few seeds for one that faults.
        let mut hit = None;
        for seed in 0..64u64 {
            let cfg = ChaosConfig::new(seed, ChaosProfile::Transient);
            let out = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
            assert!(out.relowered.is_none(), "transient profile must never force fallback");
            if out.report.faults_injected > 0 {
                hit = Some((cfg, out));
                break;
            }
        }
        let (cfg, out) = hit.expect("no transient fault in 64 seeds");
        assert!(out.report.retries > 0, "faults must be retried");
        let again = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
        assert_eq!(out.report, again.report, "same seed must reproduce the same report");
        // Compute estimates are untouched by chaos; only DMA grows.
        let plain = s.run(&compiled, &HashMap::new()).unwrap();
        for (a, b) in plain.partitions.iter().zip(&out.report.partitions) {
            assert_eq!(a.compute, b.compute);
            assert!(b.dma.dma_bytes >= a.dma.dma_bytes);
        }
    }

    #[test]
    fn forced_outage_falls_back_to_host() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let cfg = ChaosConfig::off().with_down("DECO").with_down("TABLA");
        let out = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
        assert_eq!(out.report.fallbacks.len(), 2);
        let re = out.relowered.expect("fallback must produce a re-lowered program");
        for p in re.partitions.iter() {
            assert_eq!(p.target, "CPU", "all work must land on the host");
        }
        for p in &out.report.partitions {
            assert_eq!(p.target, "Xeon E-2176G");
            assert_eq!(p.dma.dma_bytes, 0, "host execution needs no DMA");
        }
    }

    #[test]
    fn forced_outage_without_target_map_is_a_structured_error() {
        let s = soc();
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let cfg = ChaosConfig::off().with_down("DECO");
        let err = s.run_chaos(&compiled, &HashMap::new(), &cfg, None).unwrap_err();
        assert!(
            matches!(err, SocError::FallbackUnavailable { ref target, .. } if target == "DECO"),
            "got {err:?}"
        );
    }
}
