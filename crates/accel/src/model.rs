//! Shared performance/energy modelling types for the accelerator backends.
//!
//! Hardware parameters follow the paper's Table VI:
//!
//! | Chip                         | Power  | Frequency |
//! |------------------------------|--------|-----------|
//! | Xeon E-2176G (6 cores)       | 80 W   | 3.7 GHz   |
//! | UltraScale KCU1500 FPGA      | 35 W   | 150 MHz   |
//! | RoboX ASIC                   | 3.4 W  | 1 GHz     |
//! | Graphicionado ASIC           | 7 W    | 1 GHz     |
//! | Titan Xp (3840 cores)        | 250 W  | 1.5 GHz   |
//! | Jetson AGX Xavier (512 c.)   | 30 W   | 1.3 GHz   |

/// Static hardware parameters of one execution target.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// Target name.
    pub name: &'static str,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Average board/chip power while active, in watts.
    pub power_w: f64,
}

impl HwConfig {
    /// Xeon E-2176G host CPU.
    pub fn xeon() -> Self {
        HwConfig { name: "Xeon E-2176G", freq_hz: 3.7e9, power_w: 80.0 }
    }

    /// UltraScale KCU1500 FPGA fabric (TABLA / DECO / VTA bitstreams).
    pub fn kcu1500(name: &'static str) -> Self {
        HwConfig { name, freq_hz: 150.0e6, power_w: 35.0 }
    }

    /// RoboX ASIC.
    pub fn robox() -> Self {
        HwConfig { name: "RoboX", freq_hz: 1.0e9, power_w: 3.4 }
    }

    /// Graphicionado ASIC.
    pub fn graphicionado() -> Self {
        HwConfig { name: "Graphicionado", freq_hz: 1.0e9, power_w: 7.0 }
    }

    /// Titan Xp discrete GPU.
    pub fn titan_xp() -> Self {
        HwConfig { name: "Titan Xp", freq_hz: 1.5e9, power_w: 250.0 }
    }

    /// Jetson AGX Xavier embedded GPU.
    pub fn jetson_xavier() -> Self {
        HwConfig { name: "Jetson Xavier", freq_hz: 1.3e9, power_w: 30.0 }
    }
}

/// A runtime/energy estimate for one program invocation on one target.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfEstimate {
    /// Cycles spent (0 for purely analytic models that report seconds).
    pub cycles: u64,
    /// Wall-clock seconds per invocation.
    pub seconds: f64,
    /// Energy per invocation, in joules.
    pub energy_j: f64,
    /// Bytes moved over DMA per invocation.
    pub dma_bytes: u64,
}

impl PerfEstimate {
    /// Builds an estimate from cycles at a given clock and power.
    pub fn from_cycles(cycles: u64, hw: &HwConfig) -> Self {
        let seconds = cycles as f64 / hw.freq_hz;
        PerfEstimate { cycles, seconds, energy_j: seconds * hw.power_w, dma_bytes: 0 }
    }

    /// Accumulates another estimate executed sequentially after this one.
    pub fn then(&self, other: &PerfEstimate) -> PerfEstimate {
        PerfEstimate {
            cycles: self.cycles + other.cycles,
            seconds: self.seconds + other.seconds,
            energy_j: self.energy_j + other.energy_j,
            dma_bytes: self.dma_bytes + other.dma_bytes,
        }
    }

    /// Scales the estimate by an invocation count.
    pub fn scaled(&self, times: u64) -> PerfEstimate {
        PerfEstimate {
            cycles: self.cycles * times,
            seconds: self.seconds * times as f64,
            energy_j: self.energy_j * times as f64,
            dma_bytes: self.dma_bytes * times,
        }
    }
}

/// Workload-level context a backend may use to refine its estimate.
///
/// Graph workloads are *sparse*: the PMLang program is written over dense
/// vertex×vertex index spaces, but both Graphicionado and the CPU/GPU
/// baselines stream the real edge list. `effective_ops` supplies the
/// sparse operation count (≈ `edges × ops-per-edge`) that replaces the
/// dense space product.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadHints {
    /// Override for the total scalar-op count of the dominant kernel.
    pub effective_ops: Option<u64>,
    /// Override for the total bytes touched (sparse data structures).
    pub effective_bytes: Option<u64>,
    /// Real edge count per sweep (graph workloads; the PMLang program is
    /// written over a scaled dense space).
    pub edges: Option<u64>,
    /// Real vertex count (drives apply-stage cost and scratchpad fit).
    pub vertices: Option<u64>,
    /// How many invocations the native GPU stack fuses into one kernel
    /// launch (`None`/1 = latency-bound, no batching — control loops,
    /// batch-1 inference). Streaming workloads (DCT blocks, k-means
    /// samples) amortize launch overhead and raise occupancy.
    pub gpu_batch: Option<u64>,
    /// Multiplier modelling native-stack inefficiency of whatever runs on
    /// this partition's target (framework/interpreter overhead of the
    /// baseline implementation). `None` = 1.0. The end-to-end application
    /// sweeps apply it to *host* partitions only: code left on the CPU
    /// runs in the application's native stack, not an optimized kernel.
    pub native_factor: Option<f64>,
}

impl WorkloadHints {
    /// Scale factor from the dense op count to the effective (sparse) one;
    /// 1.0 when no override is present. Backends multiply their
    /// dense-formulation cycle estimates by this.
    pub fn effective_scale(&self, dense_ops: u64) -> f64 {
        let sparse = match self.effective_ops {
            Some(eff) => eff as f64 / dense_ops.max(1) as f64,
            None => 1.0,
        };
        sparse * self.native_factor.unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_seconds_and_energy() {
        let hw = HwConfig::robox();
        let p = PerfEstimate::from_cycles(1_000_000, &hw);
        assert!((p.seconds - 1e-3).abs() < 1e-12);
        assert!((p.energy_j - 3.4e-3).abs() < 1e-9);
    }

    #[test]
    fn composition_and_scaling() {
        let hw = HwConfig::xeon();
        let a = PerfEstimate::from_cycles(3_700_000, &hw); // 1 ms
        let b = a.then(&a);
        assert!((b.seconds - 2e-3).abs() < 1e-12);
        let c = a.scaled(10);
        assert!((c.seconds - 1e-2).abs() < 1e-12);
        assert_eq!(c.cycles, 37_000_000);
    }

    #[test]
    fn table_vi_parameters() {
        assert_eq!(HwConfig::xeon().power_w, 80.0);
        assert_eq!(HwConfig::kcu1500("TABLA").freq_hz, 150.0e6);
        assert_eq!(HwConfig::graphicionado().power_w, 7.0);
        assert_eq!(HwConfig::titan_xp().power_w, 250.0);
        assert_eq!(HwConfig::jetson_xavier().power_w, 30.0);
    }
}
