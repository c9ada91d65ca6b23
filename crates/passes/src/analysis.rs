//! Read-only analyses over srDFGs: operation counts, per-domain work
//! split (Amdahl accounting for the SoC), node-kind census, and dataflow
//! depth (critical path), used by the accelerator cost models.

use pmlang::Domain;
use srdfg::{NodeId, NodeKind, SrDfg};
use std::collections::HashMap;

/// Summary statistics for one graph (recursing into components).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStats {
    /// Live node count (including nodes inside component sub-graphs).
    pub nodes: usize,
    /// Count per node-kind label.
    pub kinds: HashMap<&'static str, usize>,
    /// Total scalar operations per invocation.
    pub scalar_ops: u64,
    /// Scalar operations attributed to each domain (None = unannotated).
    pub ops_by_domain: HashMap<Option<Domain>, u64>,
    /// Bytes crossing the graph boundary per invocation (inputs + outputs).
    pub boundary_bytes: u64,
}

/// Computes [`GraphStats`] for `graph`.
pub fn stats(graph: &SrDfg) -> GraphStats {
    let mut s = GraphStats::default();
    collect(graph, &mut s);
    s.boundary_bytes = graph
        .boundary_inputs
        .iter()
        .chain(&graph.boundary_outputs)
        .fold(0u64, |sum, &e| sum.saturating_add(graph.edge(e).meta.bytes()));
    s
}

fn collect(graph: &SrDfg, s: &mut GraphStats) {
    for (_, node) in graph.iter_nodes() {
        s.nodes += 1;
        let label = match &node.kind {
            NodeKind::Component(_) => "component",
            NodeKind::Map(_) => "map",
            NodeKind::Reduce(_) => "reduce",
            NodeKind::Scalar(_) => "scalar",
            NodeKind::ConstTensor(_) => "const",
            NodeKind::Load => "load",
            NodeKind::Store => "store",
            NodeKind::Unpack => "unpack",
            NodeKind::Pack => "pack",
        };
        *s.kinds.entry(label).or_default() += 1;
        let ops = srdfg::graph::node_op_count(node);
        s.scalar_ops += ops;
        *s.ops_by_domain.entry(node.domain).or_default() += ops;
        if let NodeKind::Component(sub) = &node.kind {
            // Component op counts were already included by node_op_count;
            // recurse only for node/kind census. Track the double count.
            let mut sub_stats = GraphStats::default();
            collect(sub, &mut sub_stats);
            s.nodes += sub_stats.nodes;
            for (k, v) in sub_stats.kinds {
                *s.kinds.entry(k).or_default() += v;
            }
        }
    }
}

/// Length (in nodes) of the longest dependency chain at this graph level.
/// Component sub-graphs count as single steps, matching how a pipelined
/// accelerator schedules whole sub-blocks.
pub fn critical_path_len(graph: &SrDfg) -> usize {
    let order = graph.topo_order();
    let mut depth: HashMap<NodeId, usize> = HashMap::new();
    let mut longest = 0;
    for id in order {
        let node = graph.node(id);
        let mut d = 1;
        for &e in &node.inputs {
            if let Some((p, _)) = graph.edge(e).producer {
                d = d.max(depth.get(&p).copied().unwrap_or(0) + 1);
            }
        }
        depth.insert(id, d);
        longest = longest.max(d);
    }
    longest
}

/// The set of domains annotated anywhere in the graph.
pub fn domains_used(graph: &SrDfg) -> Vec<Domain> {
    let mut out = Vec::new();
    fn walk(graph: &SrDfg, out: &mut Vec<Domain>) {
        for (_, node) in graph.iter_nodes() {
            if let Some(d) = node.domain {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
            if let NodeKind::Component(sub) = &node.kind {
                walk(sub, out);
            }
        }
    }
    walk(graph, &mut out);
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> SrDfg {
        let prog = pmlang::parse(src).unwrap();
        srdfg::build(&prog, &srdfg::Bindings::default()).unwrap()
    }

    #[test]
    fn counts_ops_and_kinds() {
        let g = graph(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
        );
        let s = stats(&g);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.kinds["reduce"], 1);
        // 2 outputs × 3 reduced points × (mul + add) = 12 ops.
        assert_eq!(s.scalar_ops, 12);
        // A(24) + B(12) + C(8) bytes at 4 B/elem.
        assert_eq!(s.boundary_bytes, 44);
    }

    #[test]
    fn boundary_bytes_saturate() {
        // x alone is 2^80 elements: its bytes saturate, and so does the sum.
        let g = graph(
            "main(input float x[1099511627776][1099511627776], output float y) {
                 y = x[0][0];
             }",
        );
        assert_eq!(stats(&g).boundary_bytes, u64::MAX);
    }

    #[test]
    fn domain_attribution() {
        let g = graph(
            "f(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] * 2.0; }
             g2(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] + 1.0; }
             main(input float a[2], output float b[2], output float c[2]) {
                 DSP: f(a, b);
                 DA: g2(a, c);
             }",
        );
        let s = stats(&g);
        assert_eq!(s.ops_by_domain[&Some(Domain::Dsp)], 2);
        assert_eq!(s.ops_by_domain[&Some(Domain::DataAnalytics)], 2);
        assert_eq!(domains_used(&g), vec![Domain::Dsp, Domain::DataAnalytics]);
    }

    #[test]
    fn critical_path_counts_chain() {
        let g = graph(
            "main(input float x, output float y) {
                 float a, b;
                 a = x + 1.0;
                 b = a * 2.0;
                 y = b - 3.0;
             }",
        );
        assert_eq!(critical_path_len(&g), 3);
    }

    #[test]
    fn parallel_statements_do_not_deepen() {
        let g = graph(
            "main(input float x, output float y, output float z) {
                 y = x + 1.0;
                 z = x * 2.0;
             }",
        );
        assert_eq!(critical_path_len(&g), 1);
    }
}
