//! The hash-map formulation of the TABLA and DECO schedulers, as it stood
//! before they became array passes ([`crate::levels`]): membership and
//! level tables keyed by `NodeId`, a fresh `topo_order()`, MAC fusion over
//! the sorted multiplier ids. Kept as the oracle the array passes must
//! equal, schedule for schedule, on real compiles and generated programs.

use crate::deco::{Deco, DecoSchedule};
use crate::tabla::{op_latency, Schedule, Tabla};
use pm_lower::{AccProgram, CompiledProgram, FragmentKind};
use pm_workloads::{apps, programs};
use pmlang::BinOp;
use rand::SeedableRng;
use srdfg::{Bindings, Modifier, NodeId, NodeKind, ScalarKind, SrDfg};
use std::collections::{HashMap, HashSet};

fn scalar_nodes<'g>(prog: &AccProgram, graph: &'g SrDfg) -> HashMap<NodeId, &'g ScalarKind> {
    prog.fragments
        .iter()
        .filter(|f| f.kind == FragmentKind::Compute)
        .filter_map(|f| f.node)
        .filter_map(|id| match &graph.node(id).kind {
            NodeKind::Scalar(k) => Some((id, k.get())),
            _ => None,
        })
        .collect()
}

fn streamed_bytes(prog: &AccProgram) -> u64 {
    let mut bytes = 0;
    for frag in prog.fragments.iter().filter(|f| f.kind != FragmentKind::Compute) {
        let a = frag.arg.as_ref().expect("a load/store carries its edge");
        if matches!(a.modifier(), Modifier::Input | Modifier::Output | Modifier::Temp) {
            bytes += a.meta.bytes();
        }
    }
    bytes
}

fn tabla_schedule(prog: &AccProgram, graph: &SrDfg) -> Schedule {
    let mine = scalar_nodes(prog, graph);
    let mut level: HashMap<NodeId, usize> = HashMap::new();
    let mut sched = Schedule::default();
    for id in graph.topo_order() {
        let Some(kind) = mine.get(&id) else { continue };
        let mut l = 0usize;
        for &e in &graph.node(id).inputs {
            if let Some((p, _)) = graph.edge(e).producer {
                if mine.contains_key(&p) {
                    l = l.max(level[&p] + 1);
                }
            }
        }
        level.insert(id, l);
        if sched.levels.len() <= l {
            sched.levels.resize(l + 1, (0, 0));
        }
        sched.levels[l].0 += 1;
        sched.levels[l].1 = sched.levels[l].1.max(op_latency(kind));
        sched.total_ops += 1;
    }
    sched.streamed_bytes = streamed_bytes(prog);
    sched
}

fn deco_schedule(prog: &AccProgram, graph: &SrDfg) -> DecoSchedule {
    let mine = scalar_nodes(prog, graph);
    let mut fused: HashSet<NodeId> = HashSet::new();
    let mut host_add_taken: HashSet<NodeId> = HashSet::new();
    let mut mul_ids: Vec<NodeId> = mine
        .iter()
        .filter(|(_, k)| matches!(k, ScalarKind::Bin(BinOp::Mul)))
        .map(|(&id, _)| id)
        .collect();
    mul_ids.sort();
    for id in mul_ids {
        let consumers = &graph.edge(graph.node(id).outputs[0]).consumers;
        if consumers.len() == 1 {
            let (c, _) = consumers[0];
            if matches!(mine.get(&c), Some(ScalarKind::Bin(BinOp::Add))) && host_add_taken.insert(c)
            {
                fused.insert(id);
            }
        }
    }
    let mut level: HashMap<NodeId, usize> = HashMap::new();
    let mut sched = DecoSchedule { fused_macs: fused.len(), ..Default::default() };
    for id in graph.topo_order() {
        if !mine.contains_key(&id) {
            continue;
        }
        let mut l = 0usize;
        for &e in &graph.node(id).inputs {
            if let Some((p, _)) = graph.edge(e).producer {
                if mine.contains_key(&p) {
                    l = l.max(level[&p] + usize::from(!fused.contains(&p)));
                }
            }
        }
        level.insert(id, l);
        if fused.contains(&id) {
            continue;
        }
        if sched.stage_ops.len() <= l {
            sched.stage_ops.resize(l + 1, 0);
        }
        sched.stage_ops[l] += 1;
    }
    sched.streamed_bytes = streamed_bytes(prog);
    sched
}

fn compile(source: &str) -> CompiledProgram {
    polymath::Compiler::cross_domain().compile(source, &Bindings::default()).unwrap()
}

/// The 13 Table III programs, the two applications, and 240 `pm-fuzz`
/// programs (statements annotated over all five domains).
fn corpus() -> Vec<(String, CompiledProgram)> {
    let named = [
        ("mobile_robot-8", programs::mobile_robot(8)),
        ("hexacopter-4", programs::hexacopter(4)),
        ("lqr-4x2", programs::lqr_step(4, 2)),
        ("bfs-16", programs::bfs(16)),
        ("sssp-16", programs::sssp(16)),
        ("pagerank-16", programs::pagerank(16)),
        ("lrmf-8x3", programs::lrmf(8, 3)),
        ("kmeans-16x3", programs::kmeans(16, 3)),
        ("fft-32", programs::fft(32)),
        ("dct-8", programs::dct(8)),
        ("dct-block", programs::dct_block()),
        ("logistic-16", programs::logistic(16)),
        ("black_scholes-8", programs::black_scholes(8)),
        ("brain_stimul-64", apps::brain_stimul(64, 8).source),
        ("option_pricing-32", apps::option_pricing(32, 8).source),
    ];
    let mut all: Vec<_> = named.iter().map(|(n, src)| (n.to_string(), compile(src))).collect();
    for seed in 0..240 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let program = pm_fuzz::gen_program(&mut rng);
        all.push((format!("generated-{seed}"), compile(&program.to_pmlang())));
    }
    all
}

#[test]
fn the_array_passes_schedule_exactly_as_the_hash_map_oracle_did() {
    let (mut tabla, mut deco, mut fused) = (0, 0, 0);
    for (name, compiled) in corpus() {
        for part in compiled.partitions.iter() {
            match part.target.as_str() {
                "TABLA" => {
                    let got = Tabla::default().schedule(part, &compiled.graph);
                    assert_eq!(got, tabla_schedule(part, &compiled.graph), "{name}");
                    tabla += 1;
                }
                "DECO" => {
                    let got = Deco::default().schedule(part, &compiled.graph);
                    assert_eq!(got, deco_schedule(part, &compiled.graph), "{name}");
                    fused += got.fused_macs;
                    deco += 1;
                }
                _ => {}
            }
        }
    }
    assert!(tabla >= 50 && deco >= 50 && fused >= 100, "{tabla} TABLA, {deco} DECO, {fused} MACs");
}

/// The array passes level a node from the producers met *before* it, so
/// they rely on `AccProgram::fragments` being topological —
/// `midend_perf.rs::algorithm2_is_one_topological_sweep` holds Algorithm 2
/// to that on every Table III program. A stream that is not must fail
/// loudly rather than price differently.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "fragment stream is not topological")]
fn an_out_of_order_partition_does_not_price_silently() {
    let compiled = compile(&programs::kmeans(16, 3));
    let mut part = compiled.partition_by_target("TABLA").expect("k-means runs on TABLA").clone();
    part.fragments.reverse();
    Tabla::default().schedule(&part, &compiled.graph);
}
