//! TABLA — template-based dataflow accelerator for statistical ML
//! (Mahajan et al., HPCA 2016; the paper's Data Analytics target).
//!
//! TABLA executes a *scalar-granularity* dataflow graph on a grid of
//! processing units (PUs), each containing processing engines (PEs) with a
//! simple ALU plus shared nonlinear units. PolyMath therefore lowers DA
//! kernels all the way to scalar ops (adder trees, multipliers, sigmoid
//! lookups), and this backend statically schedules that fabric:
//! level-by-level list scheduling with a PE resource bound, multi-cycle
//! latencies for expensive ops, and cross-PU communication overhead.
//!
//! Data placement follows the type modifiers (paper §II.A): `input`/
//! `output` values stream through FIFOs every invocation; `state` (the
//! model) and `param` values are pinned in on-chip buffers and cost nothing
//! per invocation — exactly why PMLang exposes those modifiers.

use crate::backend::Backend;
use crate::levels::Sweep;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::{Domain, ScalarFunc};
use srdfg::{ScalarKind, SrDfg};

/// The TABLA backend (FPGA bitstream on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct Tabla {
    /// Processing units.
    pub pus: usize,
    /// Processing engines per PU.
    pub pes_per_pu: usize,
    /// Bytes the input FIFOs deliver per cycle.
    pub stream_bytes_per_cycle: u64,
}

impl Default for Tabla {
    fn default() -> Self {
        // A mid-size TABLA instantiation on the KCU1500: 16 PUs × 8 PEs
        // (the template scales with the FPGA's DSP budget).
        Tabla { pus: 16, pes_per_pu: 8, stream_bytes_per_cycle: 64 }
    }
}

/// A static schedule: operations per dataflow level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// `(ops, max latency)` per ASAP level.
    pub levels: Vec<(usize, u64)>,
    /// Total scheduled operations.
    pub total_ops: usize,
    /// Input/output bytes streamed per invocation.
    pub streamed_bytes: u64,
}

impl Schedule {
    /// Cycles the schedule needs on `pes` engines: each level issues
    /// `ceil(ops/pes)` waves, and the level's deepest op adds its
    /// pipeline latency.
    pub fn cycles(&self, pes: usize) -> u64 {
        let mut cycles = 0u64;
        for &(ops, latency) in &self.levels {
            if ops == 0 {
                continue;
            }
            cycles += ops.div_ceil(pes) as u64 + latency.saturating_sub(1);
        }
        cycles.max(1)
    }
}

/// ALU latency of a scalar operation, in cycles.
pub(crate) fn op_latency(kind: &ScalarKind) -> u64 {
    match kind {
        ScalarKind::Bin(op) => match op {
            pmlang::BinOp::Mul => 2,
            pmlang::BinOp::Div | pmlang::BinOp::Pow | pmlang::BinOp::Mod => 4,
            _ => 1,
        },
        ScalarKind::Func(f) => match f {
            // Nonlinear units are lookup-table based, 4-cycle pipelined.
            _ if f.is_nonlinear() => 4,
            ScalarFunc::Min2 | ScalarFunc::Max2 | ScalarFunc::Abs | ScalarFunc::Sign => 1,
            _ => 2,
        },
        ScalarKind::Un(_) | ScalarKind::Select | ScalarKind::Const(_) => 1,
    }
}

impl Tabla {
    /// Total processing engines.
    pub fn pes(&self) -> usize {
        self.pus * self.pes_per_pu
    }

    /// Builds the static level schedule for this backend's partition.
    pub fn schedule(&self, prog: &AccProgram, graph: &SrDfg) -> Schedule {
        self.sweep(prog, graph).0
    }

    /// One pass over the partition: the ASAP level schedule of its scalar
    /// nodes, the comparator-tree cycles of the arg-reductions that stayed
    /// at group granularity (size/PEs each), and the sweep's totals.
    fn sweep<'g>(&self, prog: &AccProgram, graph: &'g SrDfg) -> (Schedule, u64, Sweep<'g>) {
        let mut sweep = Sweep::new(graph);
        let mut sched = Schedule::default();
        let mut group_cycles = 0u64;
        for frag in &prog.fragments {
            if frag.kind == FragmentKind::Compute
                && matches!(frag.op(graph), "argmin" | "argmax" | "max" | "min")
            {
                group_cycles += (frag.ops / self.pes() as u64).max(1);
            }
            let Some((id, node, kind)) = sweep.enter(frag) else { continue };
            let l = sweep.place(id, node, None);
            if sched.levels.len() <= l {
                sched.levels.resize(l + 1, (0, 0));
            }
            sched.levels[l].0 += 1;
            sched.levels[l].1 = sched.levels[l].1.max(op_latency(kind));
            sched.total_ops += 1;
        }
        sched.streamed_bytes = sweep.streamed_bytes;
        (sched, group_cycles, sweep)
    }
}

impl Backend for Tabla {
    fn name(&self) -> &'static str {
        "TABLA"
    }

    fn domain(&self) -> Domain {
        Domain::DataAnalytics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "TABLA",
            Domain::DataAnalytics,
            [
                // Scalar ALU ops.
                "add", "sub", "mul", "div", "mod", "pow", "neg", "not", "select", "const", "cmp.==",
                "cmp.!=", "cmp.<", "cmp.<=", "cmp.>", "cmp.>=", "cmp.&&", "cmp.||", "or", "and",
                // Nonlinear units.
                "sigmoid", "gaussian", "exp", "ln", "sqrt", "tanh", "relu", "abs", "sign", "min2",
                "max2", "erf", "phi", "floor", "ceil",
                // Group comparators (argmin/argmax trees exist in TABLA's
                // template library for k-means style models).
                "argmin", "argmax", "max", "min", // Marshalling.
                "unpack", "pack",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("TABLA")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let (sched, group_cycles, sweep) = self.sweep(prog, graph);
        let compute = sched.cycles(self.pes()) + group_cycles;
        sweep.price(compute, hints, self.stream_bytes_per_cycle, 32, &self.hw())
    }

    fn estimate_expert(
        &self,
        prog: &AccProgram,
        graph: &SrDfg,
        hints: &WorkloadHints,
    ) -> PerfEstimate {
        // An expert TABLA template packs ops with no per-level waste: the
        // bound is total work over the PE count plus the dataflow depth,
        // with no control epilogue.
        let (sched, _, sweep) = self.sweep(prog, graph);
        let compute =
            (sched.total_ops as u64).div_ceil(self.pes() as u64) + sched.levels.len() as u64;
        sweep.price(compute, hints, self.stream_bytes_per_cycle, 0, &self.hw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{CompiledProgram, TargetMap};

    fn logistic_regression(features: usize) -> CompiledProgram {
        let src = format!(
            "main(input float x[{n}], state float w[{n}], input float label, output float y) {{
                 index i[0:{m}];
                 float mu;
                 y = sigmoid(sum[i](w[i]*x[i]));
                 mu = (y - label) * 0.1;
                 w[i] = w[i] - mu * x[i];
             }}",
            n = features,
            m = features - 1
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::DataAnalytics);
        let tabla = Tabla::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(tabla.accel_spec());
        crate::compiled(g, &targets)
    }

    #[test]
    fn schedules_logistic_regression() {
        let compiled = logistic_regression(64);
        let part = compiled.partition(Some(Domain::DataAnalytics)).unwrap();
        let tabla = Tabla::default();
        let sched = tabla.schedule(part, &compiled.graph);
        // Dot product of 64 → 64 muls + 63 adds + sigmoid + update ops.
        assert!(sched.total_ops > 190, "got {}", sched.total_ops);
        // The adder tree gives a logarithmic level count.
        assert!(sched.levels.len() >= 7, "levels {}", sched.levels.len());
        let est = tabla.estimate(part, &compiled.graph, &WorkloadHints::default());
        assert!(est.cycles > 0);
        assert!(est.seconds > 0.0 && est.energy_j > 0.0);
    }

    #[test]
    fn more_pes_never_slower() {
        let compiled = logistic_regression(128);
        let part = compiled.partition(Some(Domain::DataAnalytics)).unwrap();
        let small = Tabla { pus: 2, pes_per_pu: 4, ..Tabla::default() };
        let big = Tabla { pus: 8, pes_per_pu: 8, ..Tabla::default() };
        let sched_small = small.schedule(part, &compiled.graph);
        let sched_big = big.schedule(part, &compiled.graph);
        assert!(sched_big.cycles(big.pes()) <= sched_small.cycles(small.pes()));
    }

    #[test]
    fn state_does_not_stream() {
        let compiled = logistic_regression(64);
        let part = compiled.partition(Some(Domain::DataAnalytics)).unwrap();
        let sched = Tabla::default().schedule(part, &compiled.graph);
        // Streams x (64×4B), label, y — NOT the 64-element weight state.
        assert!(sched.streamed_bytes < 64 * 4 * 2 + 64, "streamed {}", sched.streamed_bytes);
    }

    #[test]
    fn bigger_models_take_longer() {
        let t = Tabla::default();
        let mut last = 0u64;
        for n in [32, 128, 512] {
            let compiled = logistic_regression(n);
            let part = compiled.partition(Some(Domain::DataAnalytics)).unwrap();
            let est = t.estimate(part, &compiled.graph, &WorkloadHints::default());
            assert!(est.cycles > last, "n={n}: {} !> {last}", est.cycles);
            last = est.cycles;
        }
    }
}
