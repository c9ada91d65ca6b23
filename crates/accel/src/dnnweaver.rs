//! DnnWeaver — an alternate Deep Learning backend (Sharma et al., MICRO
//! 2016: "From high-level deep neural models to FPGAs"; reference 19 of
//! the PolyMath paper's stack comparison, Table II).
//!
//! DnnWeaver generates a template-based accelerator per network: arrays of
//! processing units walking layer slices, with a dataflow optimized for
//! convolution reuse rather than a fixed GEMM core. It accepts the same
//! *layer* granularity as VTA, so PolyMath retargets a DL program to it by
//! swapping one [`pm_lower::AcceleratorSpec`] — the concrete demonstration
//! of the paper's claim that the srDFG "offers a flexible hook that can be
//! translated to these toolchains and frameworks as well as to future
//! accelerator designs" (§VI). The `figures --portability` report compares
//! both backends on the CNN workloads.

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use srdfg::{NodeKind, SrDfg};

/// The DnnWeaver backend (FPGA bitstream on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct DnnWeaver {
    /// Processing units (each a MAC lane with local buffering).
    pub pus: usize,
    /// MACs per PU per cycle.
    pub macs_per_pu: usize,
    /// Bytes moved per cycle by the memory interface.
    pub io_bytes_per_cycle: u64,
    /// Per-layer reconfiguration/instruction overhead, cycles.
    pub layer_overhead: u64,
    /// Achieved fraction of peak on convolutions (the template's dataflow
    /// keeps MACs busier than a fixed GEMM array on small-channel layers,
    /// but its peak is lower).
    pub conv_efficiency: f64,
}

impl Default for DnnWeaver {
    fn default() -> Self {
        DnnWeaver {
            pus: 64,
            macs_per_pu: 2,
            io_bytes_per_cycle: 16,
            layer_overhead: 512,
            conv_efficiency: 0.7,
        }
    }
}

impl DnnWeaver {
    /// Peak MACs per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.pus * self.macs_per_pu) as u64
    }

    fn fragment_cycles(&self, frag: &pm_lower::Fragment, graph: &SrDfg) -> u64 {
        let Some(id) = frag.node else { return 0 };
        let node = graph.node(id);
        match &node.kind {
            NodeKind::Reduce(r) => {
                let out = srdfg::graph::space_size(&r.out_space) as u64;
                let red = srdfg::graph::space_size(&r.red_space) as u64;
                match node.name.as_str() {
                    "conv2d" | "matmul" | "matvec" | "dot" => {
                        // The per-layer template adapts its unrolling to the
                        // layer shape, so utilization is flat rather than
                        // channel-dependent.
                        let macs = out * red;
                        ((macs as f64) / (self.macs_per_cycle() as f64 * self.conv_efficiency))
                            .ceil() as u64
                    }
                    _ => (out * red).div_ceil(self.pus as u64),
                }
            }
            NodeKind::Map(m) => {
                let points = srdfg::graph::space_size(&m.out_space) as u64;
                (points * m.kernel.compute_op_count().max(1)).div_ceil(self.pus as u64)
            }
            _ => 0,
        }
    }
}

impl Backend for DnnWeaver {
    fn name(&self) -> &'static str {
        "DnnWeaver"
    }

    fn domain(&self) -> Domain {
        Domain::DeepLearning
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "DnnWeaver",
            Domain::DeepLearning,
            [
                // Layer granularity, like VTA.
                "conv2d",
                "matmul",
                "matvec",
                "dot",
                "pool",
                "sum",
                "max",
                "min",
                "argmax",
                "argmin",
                "map",
                "map.add",
                "map.sub",
                "map.mul",
                "map.relu",
                "map.max2",
                "map.min2",
                "map.copy",
                "map.fill",
                "map.select",
                "map.sigmoid",
                "map.tanh",
                "map.exp",
                "map.div",
                "map.cmp.<",
                "map.cmp.>",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("DnnWeaver")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, _hints: &WorkloadHints) -> PerfEstimate {
        let mut compute = 0u64;
        let mut layers = 0u64;
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            compute += self.fragment_cycles(frag, graph);
            layers += 1;
        }
        let io_cycles = prog.dma_bytes().div_ceil(self.io_bytes_per_cycle);
        let cycles = compute.max(io_cycles) + layers * self.layer_overhead;
        let mut est = PerfEstimate::from_cycles(cycles, &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vta::Vta;
    use pm_lower::TargetMap;

    fn compiled_cnn(backend: &dyn Backend, s: usize) -> pm_lower::CompiledProgram {
        let src = pm_workloads::programs::resnet18(s);
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DeepLearning);
        let mut targets = TargetMap::host_only(host);
        targets.set(backend.accel_spec());
        crate::compiled(g, &targets)
    }

    #[test]
    fn same_program_retargets_without_changes() {
        // The identical PMLang source lowers for both DL backends.
        let dw = DnnWeaver::default();
        let vta = Vta::default();
        let c_dw = compiled_cnn(&dw, 32);
        let c_vta = compiled_cnn(&vta, 32);
        assert_eq!(c_dw.partition(Some(Domain::DeepLearning)).unwrap().target, "DnnWeaver");
        assert_eq!(c_vta.partition(Some(Domain::DeepLearning)).unwrap().target, "TVM-VTA");
        // Both stay at layer granularity with the same layer count.
        let count = |c: &pm_lower::CompiledProgram, op: &str| {
            let p = c.partition(Some(Domain::DeepLearning)).unwrap();
            p.fragments.iter().filter(|f| f.op(&c.graph) == op).count()
        };
        assert_eq!(count(&c_dw, "conv2d"), count(&c_vta, "conv2d"));
        assert!(count(&c_dw, "conv2d") >= 17);
    }

    #[test]
    fn first_layer_shapes_favor_dnnweaver() {
        // A 3-input-channel conv underutilizes VTA's 16×16 GEMM rows but
        // not DnnWeaver's adaptive template.
        let src = "main(input float img[3][16][16], param float w[32][3][3][3],
              output float y[32][14][14]) {
             index oc[0:31], ic[0:2], i[0:13], j[0:13], r[0:2], t[0:2];
             DL: y[oc][i][j] = sum[ic][r][t](w[oc][ic][r][t]*img[ic][i+r][j+t]);
         }";
        let (prog, _) = pmlang::frontend(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DeepLearning);
        let h = WorkloadHints::default();
        let price = |backend: &dyn Backend| -> u64 {
            let mut targets = TargetMap::host_only(host.clone());
            targets.set(backend.accel_spec());
            let compiled = crate::compiled(g.clone(), &targets);
            backend
                .estimate(
                    compiled.partition(Some(Domain::DeepLearning)).unwrap(),
                    &compiled.graph,
                    &h,
                )
                .cycles
        };
        let dw_cycles = price(&DnnWeaver::default());
        let vta_cycles = price(&Vta::default());
        // Per-MAC, VTA has 2× the peak but ~19% utilization here; the
        // 128-MAC adaptive template at 70% is faster on this layer.
        assert!(dw_cycles < vta_cycles, "dw {dw_cycles} vs vta {vta_cycles}");
    }

    #[test]
    fn estimates_scale_with_network_size() {
        // At tiny images the 45 MB of weights dominates the DMA bound, so
        // compare sizes where compute is binding.
        let dw = DnnWeaver::default();
        let small = compiled_cnn(&dw, 64);
        let big = compiled_cnn(&dw, 160);
        let h = WorkloadHints::default();
        let cs = dw
            .estimate(small.partition(Some(Domain::DeepLearning)).unwrap(), &small.graph, &h)
            .cycles;
        let cb =
            dw.estimate(big.partition(Some(Domain::DeepLearning)).unwrap(), &big.graph, &h).cycles;
        assert!(cb > cs * 2, "{cb} vs {cs}");
    }
}
