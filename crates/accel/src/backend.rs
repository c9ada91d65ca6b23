//! The accelerator backend interface.
//!
//! A backend plays the role of the paper's "accelerator-provided compiler"
//! (§IV.C final step): it declares the operation granularity it accepts
//! (`Ot`, consumed by Algorithm 1), and turns the fragment stream Algorithm
//! 2 produced into an executable schedule with a cycle/energy account.
//! Functional results always come from executing the lowered srDFG itself,
//! so every backend is checked against the same ground truth.

use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec};
use pmlang::Domain;
use srdfg::SrDfg;

/// A simulated domain-specific accelerator (or general-purpose processor).
///
/// `Send + Sync` because a `SocPool`'s shards, and the backends attached
/// to them, are shared by the serve workers; backends are stateless cost
/// models, so this costs nothing.
pub trait Backend: Send + Sync {
    /// Target name (matches the `AcceleratorSpec` name).
    fn name(&self) -> &'static str;

    /// The domain this backend serves.
    fn domain(&self) -> Domain;

    /// The operation-support contract consumed by the lowering algorithm.
    fn accel_spec(&self) -> AcceleratorSpec;

    /// Hardware parameters (clock, power).
    fn hw(&self) -> HwConfig;

    /// Estimates one invocation of this backend's partition. `graph` is
    /// the full lowered srDFG (fragments reference its nodes).
    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate;

    /// Estimates the *hand-optimized* ("optimal") implementation of the
    /// same kernel on this hardware — what an expert writing directly in
    /// the accelerator's native stack achieves (paper Fig. 9/12 baseline).
    /// Experts avoid the generic compilation overheads (schedule
    /// quantization, dispatch epilogues, imperfect tiling); the default is
    /// the compiled estimate itself.
    fn estimate_expert(
        &self,
        prog: &AccProgram,
        graph: &SrDfg,
        hints: &WorkloadHints,
    ) -> PerfEstimate {
        self.estimate(prog, graph, hints)
    }
}

/// DMA transfer model between host DRAM and accelerator-local memory
/// (the paper's SoC cascades accelerators behind a host manager that
/// initiates DMA transfers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer latency in seconds (descriptor setup + interrupt).
    pub latency_s: f64,
}

impl Default for DmaModel {
    fn default() -> Self {
        // On-SoC DMA between DRAM and accelerator-local memory:
        // 16 GB/s sustained; descriptors are queued, so the per-transfer
        // overhead is small (150 ns).
        DmaModel { bandwidth: 1.6e10, latency_s: 1.5e-7 }
    }
}

impl DmaModel {
    /// Seconds to move `bytes` in one transfer.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_latency_dominates_small_transfers() {
        let dma = DmaModel::default();
        let small = dma.transfer_seconds(64);
        let big = dma.transfer_seconds(64 * 1024 * 1024);
        assert!(small < 3e-7);
        assert!(big > 4e-3);
    }
}
