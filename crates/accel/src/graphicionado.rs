//! Graphicionado — a pipelined graph-analytics ASIC (Ham et al., MICRO
//! 2016; the paper's Graph Analytics target).
//!
//! Graphicionado executes *vertex programs* — Process/Reduce/Apply stages
//! over edge streams — on parallel pipelines backed by an on-chip
//! scratchpad for vertex properties (paper Fig. 6 shows PolyMath lowering
//! a PMLang vertex program to its pipeline-block IR). PolyMath therefore
//! stops lowering GA kernels at *group* granularity: the `reduce` over
//! incoming edges and the `apply` map stay whole, and this backend maps
//! them onto pipeline blocks.
//!
//! The PMLang formulation iterates over dense vertex×vertex index spaces,
//! but the hardware streams the actual (sparse) edge list; the workload
//! harness passes the real edge count via `WorkloadHints::effective_ops`.

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use srdfg::{NodeKind, SrDfg};

/// The Graphicionado backend (ASIC, 1 GHz, 64 MB eDRAM scratchpad).
#[derive(Debug, Clone)]
pub struct Graphicionado {
    /// Parallel processing streams (pipelines).
    pub streams: usize,
    /// Edges one stream processes per cycle (pipelined).
    pub edges_per_cycle_per_stream: f64,
    /// Vertex applies per cycle per stream.
    pub applies_per_cycle_per_stream: f64,
    /// On-chip eDRAM scratchpad for vertex properties (Table VI: 64 MB).
    /// Graphs whose property array exceeds it stream from DRAM at half
    /// throughput.
    pub scratchpad_bytes: u64,
}

impl Default for Graphicionado {
    fn default() -> Self {
        Graphicionado {
            streams: 8,
            // Sustained (not peak) per-stream rates: hash collisions and
            // destination conflicts keep achieved throughput below one
            // edge per cycle (the Graphicionado paper reports ~2-3 GTEPS).
            edges_per_cycle_per_stream: 0.35,
            applies_per_cycle_per_stream: 0.5,
            scratchpad_bytes: 64 * 1024 * 1024,
        }
    }
}

/// The pipeline-block program extracted from the partition (paper Fig. 6c).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineProgram {
    /// Number of Process/Reduce stages (edge-streaming blocks).
    pub reduce_blocks: usize,
    /// Number of Apply stages (vertex-streaming blocks).
    pub apply_blocks: usize,
    /// Vertices per iteration (from the reduce output space).
    pub vertices: u64,
    /// Dense edge-space size (vertices²-style bound from the program).
    pub dense_edges: u64,
}

impl Graphicionado {
    /// Extracts the Process/Reduce/Apply block structure from a lowered
    /// GA partition.
    pub fn pipeline_program(&self, prog: &AccProgram, graph: &SrDfg) -> PipelineProgram {
        let mut p = PipelineProgram::default();
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            let Some(id) = frag.node else { continue };
            match &graph.node(id).kind {
                NodeKind::Reduce(r) => {
                    p.reduce_blocks += 1;
                    p.vertices = p.vertices.max(srdfg::graph::space_size(&r.out_space) as u64);
                    p.dense_edges += (srdfg::graph::space_size(&r.out_space)
                        * srdfg::graph::space_size(&r.red_space))
                        as u64;
                }
                NodeKind::Map(m) => {
                    p.apply_blocks += 1;
                    p.vertices = p.vertices.max(srdfg::graph::space_size(&m.out_space) as u64);
                }
                _ => {}
            }
        }
        p
    }
}

/// The sparse edge count implied by a workload hint (dense edge space
/// scaled by the effective/dense op ratio).
fn effective_edges(p: &PipelineProgram, prog: &AccProgram, hints: &WorkloadHints) -> u64 {
    match hints.effective_ops {
        Some(eff) => {
            let dense = prog.compute_ops().max(1);
            ((p.dense_edges as f64) * (eff as f64 / dense as f64)).ceil() as u64
        }
        None => p.dense_edges,
    }
}

impl Backend for Graphicionado {
    fn name(&self) -> &'static str {
        "Graphicionado"
    }

    fn domain(&self) -> Domain {
        Domain::GraphAnalytics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "Graphicionado",
            Domain::GraphAnalytics,
            [
                // Group-granularity pipeline blocks: edge reduce + vertex apply.
                "sum",
                "min",
                "max",
                "prod",
                "any",
                "all",
                "argmin",
                "argmax",
                // Apply-stage elementwise ops over vertex properties.
                "map",
                "map.add",
                "map.sub",
                "map.mul",
                "map.select",
                "map.min2",
                "map.max2",
                "map.copy",
                "map.fill",
                "map.cmp.<",
                "map.cmp.<=",
                "map.cmp.>",
                "map.cmp.>=",
                "map.cmp.==",
                "map.cmp.!=",
                "map.cmp.&&",
                "map.cmp.||",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::graphicionado()
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let p = self.pipeline_program(prog, graph);
        // Real hardware streams the sparse edge list; explicit geometry
        // hints carry the paper-scale graph, the PMLang program itself the
        // scaled dense formulation.
        let edges = hints.edges.unwrap_or_else(|| effective_edges(&p, prog, hints));
        let vertices = hints.vertices.unwrap_or(p.vertices);
        // Vertex properties beyond the scratchpad spill to DRAM.
        let spill = if vertices * 8 > self.scratchpad_bytes { 1.5 } else { 1.0 };
        let edge_throughput = self.streams as f64 * self.edges_per_cycle_per_stream / spill;
        let apply_throughput = self.streams as f64 * self.applies_per_cycle_per_stream;
        let edge_cycles =
            (edges as f64 * p.reduce_blocks.max(1) as f64 / edge_throughput).ceil() as u64;
        let apply_cycles =
            (vertices as f64 * p.apply_blocks.max(1) as f64 / apply_throughput).ceil() as u64;
        let cycles = edge_cycles + apply_cycles + 128; // iteration epilogue
        let mut est = PerfEstimate::from_cycles(cycles, &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }

    fn estimate_expert(
        &self,
        prog: &AccProgram,
        graph: &SrDfg,
        hints: &WorkloadHints,
    ) -> PerfEstimate {
        // A hand-written vertex program overlaps its reduce and apply
        // blocks perfectly and skips the per-iteration epilogue.
        let p = self.pipeline_program(prog, graph);
        let edges = hints.edges.unwrap_or_else(|| effective_edges(&p, prog, hints));
        let vertices = hints.vertices.unwrap_or(p.vertices);
        let spill = if vertices * 8 > self.scratchpad_bytes { 1.5 } else { 1.0 };
        let edge_throughput = self.streams as f64 * self.edges_per_cycle_per_stream / spill;
        let apply_throughput = self.streams as f64 * self.applies_per_cycle_per_stream;
        let cycles = ((edges as f64 / edge_throughput).max(vertices as f64 / apply_throughput))
            .ceil() as u64;
        let mut est = PerfEstimate::from_cycles(cycles.max(1), &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{CompiledProgram, TargetMap};

    /// BFS/SSSP-style vertex program over a dense weight matrix: one
    /// min-reduce over incident edges, one apply.
    fn sssp(vertices: usize) -> CompiledProgram {
        let src = format!(
            "reduction minr(a, b) = a < b ? a : b;
             main(input float e_w[{v}][{v}], state float dist[{v}], output float out[{v}]) {{
                 index u[0:{m}], v[0:{m}];
                 float cand[{v}];
                 cand[v] = min[u](dist[u] + e_w[u][v]);
                 dist[v] = cand[v] < dist[v] ? cand[v] : dist[v];
                 out[v] = dist[v];
             }}",
            v = vertices,
            m = vertices - 1
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::GraphAnalytics);
        let gacc = Graphicionado::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::GraphAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(gacc.accel_spec());
        crate::compiled(g, &targets)
    }

    #[test]
    fn extracts_pipeline_blocks() {
        let compiled = sssp(16);
        let part = compiled.partition(Some(Domain::GraphAnalytics)).unwrap();
        let gacc = Graphicionado::default();
        let p = gacc.pipeline_program(part, &compiled.graph);
        assert!(p.reduce_blocks >= 1, "{p:?}");
        assert!(p.apply_blocks >= 1, "{p:?}");
        assert_eq!(p.vertices, 16);
        assert!(p.dense_edges >= 256);
    }

    #[test]
    fn sparse_hint_beats_dense_assumption() {
        let compiled = sssp(64);
        let part = compiled.partition(Some(Domain::GraphAnalytics)).unwrap();
        let gacc = Graphicionado::default();
        let dense = gacc.estimate(part, &compiled.graph, &WorkloadHints::default());
        let sparse = gacc.estimate(
            part,
            &compiled.graph,
            &WorkloadHints { effective_ops: Some(1024), ..Default::default() },
        );
        assert!(sparse.cycles < dense.cycles);
    }

    #[test]
    fn more_streams_go_faster() {
        let compiled = sssp(64);
        let part = compiled.partition(Some(Domain::GraphAnalytics)).unwrap();
        let one = Graphicionado { streams: 1, ..Default::default() };
        let eight = Graphicionado::default();
        let hints = WorkloadHints { effective_ops: Some(100_000), ..Default::default() };
        let g = &compiled.graph;
        assert!(eight.estimate(part, g, &hints).cycles < one.estimate(part, g, &hints).cycles);
    }
}
