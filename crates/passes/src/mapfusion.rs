//! Elementwise map fusion.
//!
//! When a `Map` node's result feeds exactly one other `Map` over the same
//! iteration space, the producer's kernel can be inlined into the
//! consumer's operand reads, eliminating the intermediate tensor. This is
//! the classic loop-fusion/deforestation transform; on the srDFG it
//! complements the paper's cross-granularity combination pass by working
//! *within* the map granularity. Backends see fewer, fatter kernels —
//! fewer dispatches on CPUs and shallower streaming pipelines on overlays.

use crate::manager::{Pass, PassStats};
use srdfg::{KExpr, MapSpec, NodeId, NodeKind, SrDfg};

/// Fuses single-consumer elementwise map chains.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapFusion;

impl Pass for MapFusion {
    fn name(&self) -> &'static str {
        "map-fusion"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        while let Some((producer, consumer, slot)) = find_fusable(graph) {
            fuse(graph, producer, consumer, slot);
            stats.changed = true;
            stats.rewrites += 1;
        }
        stats
    }
}

/// Finds a `(producer, consumer, consumer-slot)` pair where fusion is
/// legal: both identity-write maps over identical spaces, the producer's
/// value consumed only by the consumer, read at identity indices.
fn find_fusable(graph: &SrDfg) -> Option<(NodeId, NodeId, usize)> {
    for (pid, pnode) in graph.iter_nodes() {
        let NodeKind::Map(pspec) = &pnode.kind else { continue };
        if !is_identity(pspec) {
            continue;
        }
        let out = pnode.outputs[0];
        let edge = graph.edge(out);
        // Sole consumer, not a boundary output.
        if edge.consumers.len() != 1 || graph.boundary_outputs.contains(&out) {
            continue;
        }
        let (cid, slot) = edge.consumers[0];
        let slot = slot as usize;
        let cnode = graph.node(cid);
        let NodeKind::Map(cspec) = &cnode.kind else { continue };
        if !same_space(pspec, cspec) {
            continue;
        }
        // Every read of this operand must be at the identity index vector
        // (element i consumed at element i), else fusion would change
        // which point the producer kernel is evaluated at.
        if !reads_identity_only(&cspec.kernel, slot, cspec.out_space.len()) {
            continue;
        }
        // Bounded growth: don't build megakernels.
        if pspec.kernel.op_count() + cspec.kernel.op_count() > 64 {
            continue;
        }
        return Some((pid, cid, slot));
    }
    None
}

fn is_identity(spec: &MapSpec) -> bool {
    !spec.write.carried
        && spec.write.lhs.len() == spec.out_space.len()
        && spec.write.lhs.iter().enumerate().all(|(i, k)| *k == KExpr::Idx(i))
        && spec
            .out_space
            .iter()
            .zip(&spec.write.target_shape)
            .all(|(r, &d)| r.lo == 0 && r.size() == d)
}

fn same_space(a: &MapSpec, b: &MapSpec) -> bool {
    a.out_space.len() == b.out_space.len()
        && a.out_space.iter().zip(&b.out_space).all(|(x, y)| x.lo == y.lo && x.hi == y.hi)
}

/// True if every `Operand { slot }` read uses exactly `[Idx(0..rank)]`.
fn reads_identity_only(k: &KExpr, slot: usize, rank: usize) -> bool {
    match k {
        KExpr::Operand { slot: s, indices } if *s == slot => {
            indices.len() == rank && indices.iter().enumerate().all(|(i, ix)| *ix == KExpr::Idx(i))
        }
        KExpr::Operand { indices, .. } => {
            indices.iter().all(|ix| reads_identity_only(ix, slot, rank))
        }
        KExpr::Unary(_, e) => reads_identity_only(e, slot, rank),
        KExpr::Binary(_, a, b) => {
            reads_identity_only(a, slot, rank) && reads_identity_only(b, slot, rank)
        }
        KExpr::Select(c, a, b) => {
            reads_identity_only(c, slot, rank)
                && reads_identity_only(a, slot, rank)
                && reads_identity_only(b, slot, rank)
        }
        KExpr::Call(_, args) => args.iter().all(|a| reads_identity_only(a, slot, rank)),
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => true,
    }
}

/// Inlines `producer`'s kernel into `consumer` at operand `slot`.
fn fuse(graph: &mut SrDfg, producer: NodeId, consumer: NodeId, slot: usize) {
    let pnode = graph.node(producer).clone();
    let cnode = graph.node(consumer).clone();
    let NodeKind::Map(pspec) = &pnode.kind else { unreachable!() };
    let NodeKind::Map(cspec) = &cnode.kind else { unreachable!() };

    // New input list: consumer's inputs without `slot`, then producer's
    // inputs appended (the prune pass dedups any overlap later).
    let mut inputs: Vec<srdfg::EdgeId> = Vec::new();
    let mut cmap: Vec<usize> = Vec::new(); // consumer slot → new slot
    for (i, &e) in cnode.inputs.iter().enumerate() {
        if i == slot {
            cmap.push(usize::MAX);
        } else {
            cmap.push(inputs.len());
            inputs.push(e);
        }
    }
    let poffset = inputs.len();
    inputs.extend(pnode.inputs.iter().copied());

    // Producer kernel with slots shifted to the new numbering.
    let pk = remap(&pspec.kernel, &|s| poffset + s);
    // Consumer kernel with `slot` reads replaced by the producer kernel
    // and other slots renumbered.
    let fused = substitute(&cspec.kernel, slot, &pk, &cmap);

    let spec =
        MapSpec { out_space: cspec.out_space.clone(), kernel: fused, write: cspec.write.clone() };
    let name = srdfg::graph::map_op_name(&spec.kernel);
    let out = cnode.outputs[0];
    let domain = cnode.domain.or(pnode.domain);
    graph.remove_node(consumer);
    graph.remove_node(producer);
    graph.add_node(name, NodeKind::map(spec), domain, inputs, vec![out]);
}

fn remap(k: &KExpr, f: &impl Fn(usize) -> usize) -> KExpr {
    match k {
        KExpr::Operand { slot, indices } => KExpr::Operand {
            slot: f(*slot),
            indices: indices.iter().map(|ix| remap(ix, f)).collect(),
        },
        KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(remap(e, f))),
        KExpr::Binary(op, a, b) => KExpr::Binary(*op, Box::new(remap(a, f)), Box::new(remap(b, f))),
        KExpr::Select(c, a, b) => {
            KExpr::Select(Box::new(remap(c, f)), Box::new(remap(a, f)), Box::new(remap(b, f)))
        }
        KExpr::Call(func, args) => KExpr::Call(*func, args.iter().map(|a| remap(a, f)).collect()),
        leaf => leaf.clone(),
    }
}

/// Replaces identity reads of `slot` with `replacement`; renumbers other
/// operand slots through `cmap`.
fn substitute(k: &KExpr, slot: usize, replacement: &KExpr, cmap: &[usize]) -> KExpr {
    match k {
        KExpr::Operand { slot: s, .. } if *s == slot => replacement.clone(),
        KExpr::Operand { slot: s, indices } => KExpr::Operand {
            slot: cmap[*s],
            indices: indices.iter().map(|ix| substitute(ix, slot, replacement, cmap)).collect(),
        },
        KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(substitute(e, slot, replacement, cmap))),
        KExpr::Binary(op, a, b) => KExpr::Binary(
            *op,
            Box::new(substitute(a, slot, replacement, cmap)),
            Box::new(substitute(b, slot, replacement, cmap)),
        ),
        KExpr::Select(c, a, b) => KExpr::Select(
            Box::new(substitute(c, slot, replacement, cmap)),
            Box::new(substitute(a, slot, replacement, cmap)),
            Box::new(substitute(b, slot, replacement, cmap)),
        ),
        KExpr::Call(func, args) => KExpr::Call(
            *func,
            args.iter().map(|a| substitute(a, slot, replacement, cmap)).collect(),
        ),
        leaf => leaf.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srdfg::{Bindings, Machine, Tensor};
    use std::collections::HashMap;

    fn graph_of(src: &str) -> SrDfg {
        let (prog, _) = pmlang::frontend(src).unwrap();
        srdfg::build(&prog, &Bindings::default()).unwrap()
    }

    fn vec_t(v: Vec<f64>) -> Tensor {
        Tensor::from_vec(pmlang::DType::Float, vec![v.len()], v).unwrap()
    }

    #[test]
    fn fuses_elementwise_chain() {
        let mut g = graph_of(
            "main(input float x[8], output float y[8]) {
                 index i[0:7];
                 float a[8], b[8];
                 a[i] = x[i] * 2.0;
                 b[i] = a[i] + 1.0;
                 y[i] = sigmoid(b[i]);
             }",
        );
        assert_eq!(g.node_count(), 3);
        let stats = MapFusion.run(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 2);
        assert_eq!(g.node_count(), 1, "chain fused into one kernel");
        srdfg::validate::validate(&g).unwrap();

        let feeds = HashMap::from([("x".to_string(), vec_t(vec![0.0; 8]))]);
        let out = Machine::new(g).invoke(&feeds).unwrap();
        let expect = 1.0 / (1.0 + (-1.0f64).exp());
        for &v in out["y"].as_real_slice().unwrap() {
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_consumer_values_not_fused() {
        let mut g = graph_of(
            "main(input float x[8], output float y[8], output float z[8]) {
                 index i[0:7];
                 float a[8];
                 a[i] = x[i] * 2.0;
                 y[i] = a[i] + 1.0;
                 z[i] = a[i] - 1.0;
             }",
        );
        assert!(!MapFusion.run(&mut g).changed);
    }

    #[test]
    fn strided_reads_not_fused() {
        // b reads a at a stride, so fusing would re-evaluate the producer
        // at the wrong points.
        let mut g = graph_of(
            "main(input float x[8], output float y[4]) {
                 index i[0:7], j[0:3];
                 float a[8];
                 a[i] = x[i] * 2.0;
                 y[j] = a[2*j] + 1.0;
             }",
        );
        assert!(!MapFusion.run(&mut g).changed);
    }

    #[test]
    fn boundary_outputs_not_fused_away() {
        let mut g = graph_of(
            "main(input float x[8], output float a[8], output float y[8]) {
                 index i[0:7];
                 a[i] = x[i] * 2.0;
                 y[i] = a[i] + 1.0;
             }",
        );
        // `a` is itself an output: it must survive.
        assert!(!MapFusion.run(&mut g).changed);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn fusion_preserves_semantics_with_multiple_operands() {
        let src = "main(input float x[6], input float w[6], output float y[6]) {
             index i[0:5];
             float a[6];
             a[i] = x[i] * w[i];
             y[i] = a[i] + w[i];
         }";
        let mut g = graph_of(src);
        let feeds = HashMap::from([
            ("x".to_string(), vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
            ("w".to_string(), vec_t(vec![0.5; 6])),
        ]);
        let base = Machine::new(g.clone()).invoke(&feeds).unwrap();
        assert!(MapFusion.run(&mut g).changed);
        crate::prune::PruneUnusedInputs.run(&mut g);
        srdfg::validate::validate(&g).unwrap();
        let fused = Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(base["y"], fused["y"]);
    }

    #[test]
    fn oversized_kernels_not_fused() {
        // Build a chain long enough that the growth bound stops fusion.
        let mut body = String::from("a0[i] = x[i];\n");
        for k in 1..40 {
            body.push_str(&format!(
                "a{k}[i] = sigmoid(a{p}[i]) + sigmoid(a{p}[i]) + sigmoid(a{p}[i]);\n",
                p = k - 1
            ));
        }
        let decls: Vec<String> = (0..40).map(|k| format!("float a{k}[4];")).collect();
        let src = format!(
            "main(input float x[4], output float y[4]) {{
                 index i[0:3];
                 {}
                 {body}
                 y[i] = a39[i];
             }}",
            decls.join("\n")
        );
        let mut g = graph_of(&src);
        let before = g.node_count();
        MapFusion.run(&mut g);
        // Some fusion happens, but the bound prevents one megakernel.
        assert!(g.node_count() > 1, "bound ignored: {} -> {}", before, g.node_count());
    }
}
