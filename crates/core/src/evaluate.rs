//! Whole-benchmark evaluation: compiles a workload for every platform and
//! prices the full run (per-invocation estimate × invocation count).
//! This is the measurement layer behind every figure of the evaluation.

use crate::compiler::{standard_soc, Compiler, PolyMathError};
use pm_accel::{Backend, Cpu, Gpu, PerfEstimate, WorkloadHints};
use pm_workloads::{SparseHints, Workload};
use pmlang::Domain;
use srdfg::Bindings;
use std::collections::HashMap;

/// Whole-benchmark estimates across the evaluation platforms.
#[derive(Debug, Clone)]
pub struct PlatformResults {
    /// Benchmark name.
    pub benchmark: String,
    /// The workload's domain.
    pub domain: Domain,
    /// The accelerator that served it.
    pub target: String,
    /// Xeon CPU baseline (native stack).
    pub cpu: PerfEstimate,
    /// Titan Xp baseline.
    pub titan: PerfEstimate,
    /// Jetson Xavier baseline.
    pub jetson: PerfEstimate,
    /// PolyMath-compiled execution on the domain accelerator (incl. DMA).
    pub polymath: PerfEstimate,
    /// Hand-optimized execution on the same accelerator.
    pub expert: PerfEstimate,
}

impl PlatformResults {
    /// Runtime improvement over the CPU (paper Fig. 7, blue bars).
    pub fn speedup_vs_cpu(&self) -> f64 {
        self.cpu.seconds / self.polymath.seconds
    }

    /// Energy improvement over the CPU (paper Fig. 7, orange bars).
    pub fn energy_reduction_vs_cpu(&self) -> f64 {
        self.cpu.energy_j / self.polymath.energy_j
    }

    /// Runtime improvement over a GPU estimate (paper Fig. 8).
    pub fn speedup_vs(&self, gpu: &PerfEstimate) -> f64 {
        gpu.seconds / self.polymath.seconds
    }

    /// Performance-per-watt improvement over a GPU estimate (paper Fig. 8).
    pub fn ppw_vs(&self, gpu: &PerfEstimate) -> f64 {
        let own = 1.0 / self.polymath.energy_j;
        let theirs = 1.0 / gpu.energy_j;
        own / theirs
    }

    /// Fraction of the hand-optimized runtime achieved (paper Fig. 9).
    pub fn pct_of_optimal(&self) -> f64 {
        self.expert.seconds / self.polymath.seconds
    }
}

/// Sums a backend's estimate over every partition of a compiled program
/// (host-only compiles still partition by domain annotation, so a single
/// processor must be priced across all of them).
pub fn estimate_all(
    backend: &dyn Backend,
    compiled: &pm_lower::CompiledProgram,
    hints: &WorkloadHints,
) -> PerfEstimate {
    let mut total = PerfEstimate::default();
    for part in compiled.partitions.iter() {
        total = total.then(&backend.estimate(part, &compiled.graph, hints));
    }
    total
}

/// Converts workload sparse hints into backend hints.
fn to_workload_hints(h: &SparseHints) -> WorkloadHints {
    WorkloadHints {
        effective_ops: h.effective_ops,
        effective_bytes: h.effective_bytes,
        edges: h.edges,
        vertices: h.vertices,
        gpu_batch: h.gpu_batch,
        native_factor: None,
    }
}

/// Converts a workload's sparse hints into per-domain backend hints.
fn hint_map(hints: &SparseHints) -> HashMap<Option<Domain>, WorkloadHints> {
    let wh = to_workload_hints(hints);
    let mut m = HashMap::new();
    if *hints != SparseHints::default() {
        for d in Domain::all() {
            m.insert(Some(d), wh);
        }
        m.insert(None, wh);
    }
    m
}

/// Evaluates one workload across CPU, both GPUs, and its accelerator.
///
/// # Errors
///
/// Returns a [`PolyMathError`] if any compilation path fails.
pub fn evaluate(workload: &Workload) -> Result<PlatformResults, PolyMathError> {
    let bindings = Bindings::default();
    let hints = hint_map(&workload.hints);
    // Baselines run the *native stack's* algorithm; when its cost differs
    // from the PMLang formulation, `native_hints` carries the difference.
    let mut native = workload.native_hints.unwrap_or(workload.hints);
    // Batching is a property of the workload's streaming structure, not of
    // the native algorithm override.
    native.gpu_batch = native.gpu_batch.or(workload.hints.gpu_batch);
    let flat = to_workload_hints(&native);

    // Baselines compile against the host spec (native single-machine run).
    // NB: partitions are keyed by domain annotation even on the host, so
    // the processor is priced across every partition.
    let host = Compiler::host_only().compile(&workload.source, &bindings)?;
    let cpu = estimate_all(&Cpu::default(), &host, &flat).scaled(workload.invocations);
    let titan = estimate_all(&Gpu::titan_xp(), &host, &flat).scaled(workload.invocations);
    let jetson = estimate_all(&Gpu::jetson_xavier(), &host, &flat).scaled(workload.invocations);

    // PolyMath compiles cross-domain and runs on the SoC.
    let compiled = Compiler::cross_domain().compile(&workload.source, &bindings)?;
    let soc = standard_soc();
    let polymath = soc.run(&compiled, &hints)?.total.scaled(workload.invocations);
    let expert = soc.run_expert(&compiled, &hints)?.total.scaled(workload.invocations);
    let target = compiled
        .partitions
        .iter()
        .find(|p| p.domain == Some(workload.domain))
        .map(|p| p.target.clone())
        .unwrap_or_else(|| "CPU".into());

    Ok(PlatformResults {
        benchmark: workload.benchmark.to_string(),
        domain: workload.domain,
        target,
        cpu,
        titan,
        jetson,
        polymath,
        expert,
    })
}

/// Geometric mean of a ratio across results.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lr_workload() -> Workload {
        Workload {
            benchmark: "LR-small",
            algorithm: "Logistic Regression",
            domain: Domain::DataAnalytics,
            config: "256 features".into(),
            source: pm_workloads::programs::logistic(256),
            invocations: 1000,
            hints: SparseHints::default(),
            native_hints: None,
        }
    }

    #[test]
    fn evaluate_produces_consistent_results() {
        let r = evaluate(&small_lr_workload()).unwrap();
        assert_eq!(r.target, "TABLA");
        assert!(r.cpu.seconds > 0.0 && r.polymath.seconds > 0.0);
        // The expert implementation is never slower than the compiled one.
        assert!(r.expert.seconds <= r.polymath.seconds * 1.0001);
        assert!(r.pct_of_optimal() <= 1.0001 && r.pct_of_optimal() > 0.2);
    }

    #[test]
    fn invocation_scaling_is_linear() {
        let w1 = small_lr_workload();
        let mut w2 = small_lr_workload();
        w2.invocations *= 10;
        let r1 = evaluate(&w1).unwrap();
        let r2 = evaluate(&w2).unwrap();
        assert!((r2.cpu.seconds / r1.cpu.seconds - 10.0).abs() < 1e-6);
        assert!((r2.polymath.seconds / r1.polymath.seconds - 10.0).abs() < 1e-6);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
