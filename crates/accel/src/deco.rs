//! DECO — a DSP-block based FPGA accelerator overlay (Jain et al., FCCM
//! 2016; the paper's DSP-domain target).
//!
//! DECO composes the FPGA's hard DSP48 blocks into a low-overhead overlay:
//! each block executes a (pipelined) multiply-accumulate per cycle, and the
//! kernel's dataflow graph is mapped stage-by-stage onto the block array.
//! DECO "requires specific topologies for their graph-based IR, i.e.
//! balanced DFGs, because they rely on stage-based computation" (paper
//! §V.B.1) — which is exactly what the srDFG's balanced adder-tree
//! expansion provides.
//!
//! The scheduler here fuses `mul → add` pairs into single DSP ops (the
//! block's hard MAC path), levels the remaining graph, and pipelines
//! stages: after the fill latency, each stage streams one wave per cycle.

use crate::backend::Backend;
use crate::levels::Sweep;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec};
use pmlang::{BinOp, Domain};
use srdfg::{NodeId, NodeKind, ScalarKind, SrDfg};

/// The DECO backend (FPGA overlay on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct Deco {
    /// Available DSP blocks in the overlay.
    pub dsp_blocks: usize,
    /// Bytes streamed in/out per cycle.
    pub stream_bytes_per_cycle: u64,
}

impl Default for Deco {
    fn default() -> Self {
        Deco { dsp_blocks: 256, stream_bytes_per_cycle: 64 }
    }
}

/// A stage-mapped schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecoSchedule {
    /// Effective DSP operations per pipeline stage (after MAC fusion).
    pub stage_ops: Vec<usize>,
    /// Number of `mul→add` pairs fused into single DSP MACs.
    pub fused_macs: usize,
    /// Bytes streamed per invocation.
    pub streamed_bytes: u64,
}

impl DecoSchedule {
    /// Cycles on `blocks` DSP blocks: stages issue `ceil(ops/blocks)`
    /// waves; the pipeline adds one fill cycle per stage.
    pub fn cycles(&self, blocks: usize) -> u64 {
        let mut cycles = self.stage_ops.len() as u64; // pipeline fill
        for &ops in &self.stage_ops {
            cycles += ops.div_ceil(blocks) as u64;
        }
        cycles.max(1)
    }
}

impl Deco {
    /// Builds the stage schedule with MAC fusion.
    pub fn schedule(&self, prog: &AccProgram, graph: &SrDfg) -> DecoSchedule {
        self.sweep(prog, graph).0
    }

    /// One pass over the partition: the stage schedule and the sweep's
    /// totals.
    fn sweep<'g>(&self, prog: &AccProgram, graph: &'g SrDfg) -> (DecoSchedule, Sweep<'g>) {
        let mut sweep = Sweep::new(graph);
        let mut sched = DecoSchedule::default();
        for frag in &prog.fragments {
            let Some((id, node, kind)) = sweep.enter(frag) else { continue };
            // MAC fusion: a mul whose single consumer is an add absorbs into
            // that add's DSP block (DSP48 computes a·b + c, so each add can
            // host at most one multiplier — its lowest-numbered candidate).
            let fusable = |&(p, _): &(NodeId, usize)| {
                let mul = graph.node(p);
                let users = &graph.edge(mul.outputs[0]).consumers;
                matches!(&mul.kind, NodeKind::Scalar(k) if **k == ScalarKind::Bin(BinOp::Mul))
                    && users.len() == 1
                    && users[0].0 == id
            };
            let mac = match kind {
                ScalarKind::Bin(BinOp::Add) => sweep.producers(node).filter(fusable).min(),
                _ => None,
            };
            // A fused mul shares its add's stage and is accounted within
            // the add's MAC: take back the op its own stage was charged.
            let l = sweep.place(id, node, mac.map(|(mul, _)| mul));
            if let Some((_, mul_stage)) = mac {
                sched.stage_ops[mul_stage] -= 1;
                sched.fused_macs += 1;
            }
            if sched.stage_ops.len() <= l {
                sched.stage_ops.resize(l + 1, 0);
            }
            sched.stage_ops[l] += 1;
        }
        sched.streamed_bytes = sweep.streamed_bytes;
        (sched, sweep)
    }
}

impl Backend for Deco {
    fn name(&self) -> &'static str {
        "DECO"
    }

    fn domain(&self) -> Domain {
        Domain::Dsp
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "DECO",
            Domain::Dsp,
            [
                // DSP-block primitive ops (single-op granularity, paper §V.A.3).
                // `mod`/`floor` are index-manipulation ops the overlay's
                // address generators provide (butterfly indexing).
                "add", "sub", "mul", "div", "mod", "floor", "neg", "select", "const", "cmp.==",
                "cmp.!=", "cmp.<", "cmp.<=", "cmp.>", "cmp.>=",
                // CORDIC-style units for transcendental factors.
                "sin", "cos", "sqrt", "abs", "complex", "creal", "cimag", "min2", "max2",
                // Marshalling.
                "unpack", "pack",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("DECO")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        // Small per-invocation control cost: back-to-back kernels stream
        // through the pipelined overlay, so fill is amortized.
        let (sched, sweep) = self.sweep(prog, graph);
        let compute = sched.cycles(self.dsp_blocks);
        sweep.price(compute, hints, self.stream_bytes_per_cycle, 8, &self.hw())
    }

    fn estimate_expert(
        &self,
        prog: &AccProgram,
        graph: &SrDfg,
        hints: &WorkloadHints,
    ) -> PerfEstimate {
        // An expert DECO mapping keeps every DSP block busy each cycle:
        // total fused work over the block count plus pipeline depth.
        let (sched, sweep) = self.sweep(prog, graph);
        let total: u64 = sched.stage_ops.iter().map(|&o| o as u64).sum();
        let compute = total.div_ceil(self.dsp_blocks as u64) + sched.stage_ops.len() as u64;
        sweep.price(compute, hints, self.stream_bytes_per_cycle, 0, &self.hw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{CompiledProgram, TargetMap};

    /// A small dot-product-with-scale DSP kernel (complex-free so every op
    /// maps onto DSP blocks).
    fn fir(taps: usize) -> CompiledProgram {
        let src = format!(
            "main(input float x[{n}], param float h[{n}], output float y) {{
                 index i[0:{m}];
                 y = sum[i](h[i]*x[i]);
             }}",
            n = taps,
            m = taps - 1
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::Dsp);
        let deco = Deco::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
        let mut targets = TargetMap::host_only(host);
        targets.set(deco.accel_spec());
        crate::compiled(g, &targets)
    }

    #[test]
    fn fuses_macs_in_dot_product() {
        let compiled = fir(64);
        let part = compiled.partition(Some(Domain::Dsp)).unwrap();
        let sched = Deco::default().schedule(part, &compiled.graph);
        // Every mul feeds exactly one adder-tree add — but only the 32
        // first-level adds have mul operands; those muls all fuse.
        assert!(sched.fused_macs >= 32, "fused {}", sched.fused_macs);
        // Balanced adder tree: log2(64) stages.
        assert!(sched.stage_ops.len() >= 6, "stages {}", sched.stage_ops.len());
    }

    #[test]
    fn pipeline_cycles_scale_with_taps() {
        let deco = Deco::default();
        let mut last = 0u64;
        for taps in [64, 512, 2048] {
            let compiled = fir(taps);
            let part = compiled.partition(Some(Domain::Dsp)).unwrap();
            let est = deco.estimate(part, &compiled.graph, &WorkloadHints::default());
            assert!(est.cycles > last, "taps={taps}");
            last = est.cycles;
        }
    }

    #[test]
    fn params_do_not_stream() {
        let compiled = fir(64);
        let part = compiled.partition(Some(Domain::Dsp)).unwrap();
        let sched = Deco::default().schedule(part, &compiled.graph);
        // Streams x (256B) and y (4B) but not the 256B of taps.
        assert!(sched.streamed_bytes <= 300, "streamed {}", sched.streamed_bytes);
    }
}
