//! Algebraic combination across granularity boundaries (paper §IV.B).
//!
//! The paper's flagship example: "if an srDFG with a top-level
//! matrix-vector multiplication is added to the output of another
//! matrix-vector operation …, the matrix vector operations can be fused
//! together by concatenating their inputs. This transformation opportunity
//! remains unidentified in flat IRs."
//!
//! Here the pattern is a `Map(add)` whose two operands are `sum`
//! reductions over the same output space (the shape MPC's
//! `pred[k] = Σᵢ P[k,i]·pos[i]; pred[k] += Σⱼ H[k,j]·ctrl[j]` produces).
//! The rewrite concatenates the two reduction ranges into a single
//! reduction whose body selects the contributing term by range — exactly
//! the `[P H]·[pos; ctrl]` concatenation of the paper.

use crate::manager::{Pass, PassStats};
use pmlang::{BinOp, BuiltinReduction};
use srdfg::{IndexRange, KExpr, NodeId, NodeKind, ReduceOp, ReduceSpec, SrDfg};

/// Fuses `sum(...) + sum(...)` chains into one concatenated reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgebraicCombination;

impl Pass for AlgebraicCombination {
    fn name(&self) -> &'static str {
        "algebraic-combination"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        while let Some(candidate) = find_candidate(graph) {
            apply_fusion(graph, candidate);
            stats.changed = true;
            stats.rewrites += 1;
        }
        stats
    }
}

struct Candidate {
    map_id: NodeId,
    red_a: NodeId,
    red_b: NodeId,
}

fn find_candidate(graph: &SrDfg) -> Option<Candidate> {
    for (map_id, node) in graph.iter_nodes() {
        let NodeKind::Map(mspec) = &node.kind else { continue };
        // Kernel must be exactly %a[identity] + %b[identity].
        let KExpr::Binary(BinOp::Add, lhs, rhs) = &mspec.kernel else { continue };
        let (Some(sa), Some(sb)) =
            (identity_read(lhs, mspec.out_space.len()), identity_read(rhs, mspec.out_space.len()))
        else {
            continue;
        };
        if mspec.write.carried {
            continue;
        }
        let ea = node.inputs[sa];
        let eb = node.inputs[sb];
        let (pa, pb) = (graph.edge(ea).producer, graph.edge(eb).producer);
        let (Some((ra, _)), Some((rb, _))) = (pa, pb) else { continue };
        if ra == rb {
            continue;
        }
        // Each producer must be a sole-consumer, non-carried, unconditional
        // 1-D `sum` reduction over the same output space.
        if graph.edge(ea).consumers.len() != 1 || graph.edge(eb).consumers.len() != 1 {
            continue;
        }
        let ok = |rid: NodeId| -> bool {
            let n = graph.node(rid);
            match &n.kind {
                NodeKind::Reduce(r) => {
                    matches!(r.op, ReduceOp::Builtin(BuiltinReduction::Sum))
                        && r.cond.is_none()
                        && !r.write.carried
                        && r.red_space.len() == 1
                        && same_space(&r.out_space, &graph_map_space(graph, map_id))
                }
                _ => false,
            }
        };
        if ok(ra) && ok(rb) {
            return Some(Candidate { map_id, red_a: ra, red_b: rb });
        }
    }
    None
}

fn graph_map_space(graph: &SrDfg, map_id: NodeId) -> Vec<IndexRange> {
    match &graph.node(map_id).kind {
        NodeKind::Map(m) => m.out_space.clone(),
        _ => unreachable!(),
    }
}

fn same_space(a: &[IndexRange], b: &[IndexRange]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.lo == y.lo && x.hi == y.hi)
}

/// If `k` reads an operand at exactly `Idx(0..rank)`, returns its slot.
fn identity_read(k: &KExpr, rank: usize) -> Option<usize> {
    match k {
        KExpr::Operand { slot, indices } if indices.len() == rank => {
            indices.iter().enumerate().all(|(i, ix)| *ix == KExpr::Idx(i)).then_some(*slot)
        }
        _ => None,
    }
}

fn apply_fusion(graph: &mut SrDfg, c: Candidate) {
    let map_node = graph.node(c.map_id).clone();
    let NodeKind::Map(mspec) = &map_node.kind else { unreachable!() };
    let node_a = graph.node(c.red_a).clone();
    let node_b = graph.node(c.red_b).clone();
    let (NodeKind::Reduce(spec_a), NodeKind::Reduce(spec_b)) = (&node_a.kind, &node_b.kind) else {
        unreachable!()
    };

    let out_rank = spec_a.out_space.len();
    let n1 = spec_a.red_space[0].size() as i64;
    let n2 = spec_b.red_space[0].size() as i64;
    let lo_a = spec_a.red_space[0].lo;
    let lo_b = spec_b.red_space[0].lo;

    // Combined operand list: A's inputs then B's inputs.
    let mut inputs = node_a.inputs.clone();
    let b_offset = inputs.len();
    inputs.extend(node_b.inputs.iter().copied());

    // Rewrite bodies onto the fused index: position `out_rank` runs over
    // [0, n1+n2); A sees `f + lo_a`, B sees `f - n1 + lo_b`.
    let fused_idx = KExpr::Idx(out_rank);
    let body_a = substitute_red_idx(&spec_a.body, out_rank, &offset_expr(&fused_idx, lo_a), 0);
    let body_b =
        substitute_red_idx(&spec_b.body, out_rank, &offset_expr(&fused_idx, lo_b - n1), b_offset);
    let body = KExpr::Select(
        Box::new(KExpr::Binary(BinOp::Lt, Box::new(fused_idx), Box::new(KExpr::Const(n1 as f64)))),
        Box::new(body_a),
        Box::new(body_b),
    );

    let spec = ReduceSpec {
        op: ReduceOp::Builtin(BuiltinReduction::Sum),
        out_space: spec_a.out_space.clone(),
        red_space: vec![IndexRange { name: "fused".into(), lo: 0, hi: n1 + n2 - 1 }],
        cond: None,
        body,
        write: mspec.write.clone(),
    };

    let out_edge = map_node.outputs[0];
    graph.remove_node(c.map_id);
    graph.remove_node(c.red_a);
    graph.remove_node(c.red_b);
    graph.add_node("sum", NodeKind::reduce(spec), map_node.domain, inputs.to_vec(), vec![out_edge]);
}

fn offset_expr(base: &KExpr, offset: i64) -> KExpr {
    if offset == 0 {
        base.clone()
    } else {
        KExpr::Binary(BinOp::Add, Box::new(base.clone()), Box::new(KExpr::Const(offset as f64)))
    }
}

/// Replaces `Idx(red_pos)` with `replacement` and shifts operand slots by
/// `slot_offset` (indices below `red_pos` — the shared output space — stay).
fn substitute_red_idx(k: &KExpr, red_pos: usize, replacement: &KExpr, slot_offset: usize) -> KExpr {
    match k {
        KExpr::Idx(p) if *p == red_pos => replacement.clone(),
        KExpr::Idx(p) => KExpr::Idx(*p),
        KExpr::Const(v) => KExpr::Const(*v),
        KExpr::Arg(a) => KExpr::Arg(*a),
        KExpr::Operand { slot, indices } => KExpr::Operand {
            slot: slot + slot_offset,
            indices: indices
                .iter()
                .map(|ix| substitute_red_idx(ix, red_pos, replacement, slot_offset))
                .collect(),
        },
        KExpr::Unary(op, e) => {
            KExpr::Unary(*op, Box::new(substitute_red_idx(e, red_pos, replacement, slot_offset)))
        }
        KExpr::Binary(op, a, b) => KExpr::Binary(
            *op,
            Box::new(substitute_red_idx(a, red_pos, replacement, slot_offset)),
            Box::new(substitute_red_idx(b, red_pos, replacement, slot_offset)),
        ),
        KExpr::Select(cnd, a, b) => KExpr::Select(
            Box::new(substitute_red_idx(cnd, red_pos, replacement, slot_offset)),
            Box::new(substitute_red_idx(a, red_pos, replacement, slot_offset)),
            Box::new(substitute_red_idx(b, red_pos, replacement, slot_offset)),
        ),
        KExpr::Call(f, args) => KExpr::Call(
            *f,
            args.iter().map(|a| substitute_red_idx(a, red_pos, replacement, slot_offset)).collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The paper's MPC shape: two matvecs summed elementwise.
    const TWO_MATVEC: &str = "main(input float P[3][2], input float pos[2],
              input float H[3][4], input float ctrl[4],
              output float pred[3]) {
         index i[0:1], j[0:3], k[0:2];
         float t1[3], t2[3];
         t1[k] = sum[i](P[k][i]*pos[i]);
         t2[k] = sum[j](H[k][j]*ctrl[j]);
         pred[k] = t1[k] + t2[k];
     }";

    fn feeds() -> HashMap<String, srdfg::Tensor> {
        let t = |shape: Vec<usize>, v: Vec<f64>| {
            srdfg::Tensor::from_vec(pmlang::DType::Float, shape, v).unwrap()
        };
        HashMap::from([
            ("P".to_string(), t(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
            ("pos".to_string(), t(vec![2], vec![1.0, -1.0])),
            ("H".to_string(), t(vec![3, 4], (0..12).map(|x| x as f64).collect())),
            ("ctrl".to_string(), t(vec![4], vec![1.0, 0.0, 1.0, 0.0])),
        ])
    }

    #[test]
    fn fuses_two_matvecs() {
        let prog = pmlang::parse(TWO_MATVEC).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        let baseline = srdfg::Machine::new(g.clone()).invoke(&feeds()).unwrap();

        let stats = AlgebraicCombination.run(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 1);
        assert_eq!(g.node_count(), 1, "three nodes fused into one reduction");
        srdfg::validate::validate(&g).unwrap();

        // The fused reduction runs over the concatenated range 2+4.
        let (_, node) = g.iter_nodes().next().unwrap();
        let NodeKind::Reduce(spec) = &node.kind else { panic!("expected reduce") };
        assert_eq!(spec.red_space[0].size(), 6);

        let fused = srdfg::Machine::new(g).invoke(&feeds()).unwrap();
        assert_eq!(
            baseline["pred"].max_abs_diff(&fused["pred"]).unwrap(),
            0.0,
            "fusion must preserve semantics"
        );
    }

    #[test]
    fn no_fusion_when_spaces_differ() {
        let prog = pmlang::parse(
            "main(input float a[4], input float b[4], output float y[4]) {
                 index i[0:3];
                 y[i] = a[i] + b[i];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert!(!AlgebraicCombination.run(&mut g).changed);
    }

    #[test]
    fn no_fusion_for_shared_producer() {
        // t + t: both operands come from the same reduction.
        let prog = pmlang::parse(
            "main(input float A[3][2], input float x[2], output float y[3]) {
                 index i[0:1], k[0:2];
                 float t[3];
                 t[k] = sum[i](A[k][i]*x[i]);
                 y[k] = t[k] + t[k];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert!(!AlgebraicCombination.run(&mut g).changed);
    }

    #[test]
    fn fusion_then_standard_pipeline_is_stable() {
        let prog = pmlang::parse(TWO_MATVEC).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        AlgebraicCombination.run(&mut g);
        let pm = crate::manager::PassManager::standard();
        pm.run(&mut g);
        srdfg::validate::validate(&g).unwrap();
        let out = srdfg::Machine::new(g).invoke(&feeds()).unwrap();
        assert_eq!(out["pred"].shape(), &[3]);
    }
}
