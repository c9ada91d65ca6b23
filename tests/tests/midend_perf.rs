//! Mid-end performance regression tests.
//!
//! The value-numbering CSE replaced a pairwise O(n²) fixpoint scan; these
//! tests pin its behaviour to the old algorithm (kept here as a reference
//! implementation) across the workload suite, pin the pass manager's
//! dirty-bit fixpoint to the plain run-everything fixpoint, and pin
//! Algorithm 2's fragment streams to the paper's single topological sweep.

use pm_passes::{CommonSubexpressionElimination, Pass, PassManager, PassStats};
use pm_workloads::{apps, programs};
use pmlang::DType;
use polymath::Compiler;
use srdfg::{Bindings, EdgeId, Machine, Modifier, NodeId, NodeKind, SrDfg, Tensor};
use std::collections::HashMap;

/// Small instances of every program family in `pm_workloads::programs`
/// (CNN generators excluded: minutes-long under the debug-mode
/// interpreter, and their layer structure adds no new node kinds).
fn workloads() -> Vec<(&'static str, String)> {
    vec![
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
    ]
}

/// The retired O(n²) pairwise-fixpoint CSE, kept as a behavioural
/// reference. Merge mechanics (survivor direction, boundary refusal) go
/// through the same `SrDfg::merge_nodes` helper the production pass uses;
/// only the search strategy differs.
fn pairwise_cse_reference(graph: &mut SrDfg) {
    // Recurse into component bodies, as `Pass::run` does.
    for id in graph.node_ids().collect::<Vec<_>>() {
        if matches!(graph.node(id).kind, NodeKind::Component(_)) {
            let NodeKind::Component(sub) = &mut graph.node_mut(id).kind else { unreachable!() };
            let mut inner = std::mem::replace(sub.as_mut(), SrDfg::new(""));
            pairwise_cse_reference(&mut inner);
            if let NodeKind::Component(slot) = &mut graph.node_mut(id).kind {
                **slot = inner;
            }
        }
    }
    loop {
        let mut changed = false;
        let ids: Vec<_> = graph.node_ids().collect();
        'outer: for i in 0..ids.len() {
            let a = ids[i];
            if !graph.is_live(a) || matches!(graph.node(a).kind, NodeKind::Component(_)) {
                continue;
            }
            for &b in &ids[i + 1..] {
                if !graph.is_live(b) {
                    continue;
                }
                let (na, nb) = (graph.node(a), graph.node(b));
                if na.kind == nb.kind
                    && na.inputs == nb.inputs
                    && !matches!(nb.kind, NodeKind::Component(_))
                    && graph.merge_nodes(a, b).is_some()
                {
                    changed = true;
                    continue 'outer; // `a` itself may have been dropped
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Live nodes including component bodies.
fn total_nodes(g: &SrDfg) -> usize {
    g.iter_nodes()
        .map(|(_, n)| {
            1 + match &n.kind {
                NodeKind::Component(sub) => total_nodes(sub),
                _ => 0,
            }
        })
        .sum()
}

/// Deterministic feeds for every non-state boundary input: strictly
/// positive values (keeps `log`/`sqrt`/division in the workloads
/// well-defined), integral for integer dtypes.
fn synthetic_feeds(g: &SrDfg) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    for (k, &e) in g.boundary_inputs.iter().enumerate() {
        let meta = &g.edge(e).meta;
        if meta.modifier == Modifier::State {
            continue;
        }
        let n: usize = meta.shape.iter().product();
        let t = match meta.dtype {
            DType::Complex => {
                let data = (0..n).map(|i| ((((i + k) % 7) as f64) * 0.25 + 0.25, 0.125)).collect();
                Tensor::from_complex_vec(meta.shape.clone(), data).unwrap()
            }
            DType::Float => {
                let data = (0..n).map(|i| (((i + k) % 7) as f64) * 0.25 + 0.25).collect();
                Tensor::from_vec(meta.dtype, meta.shape.clone(), data).unwrap()
            }
            _ => {
                let data = (0..n).map(|i| (((i + k) % 5) + 1) as f64).collect();
                Tensor::from_vec(meta.dtype, meta.shape.clone(), data).unwrap()
            }
        };
        feeds.insert(meta.name.clone(), t);
    }
    feeds
}

/// Differential test: on every workload family, the value-numbering CSE
/// must (a) never leave more live nodes than the pairwise reference and
/// (b) produce a graph that computes bit-identical outputs under the
/// reference interpreter.
#[test]
fn vn_cse_equivalent_to_pairwise_reference() {
    for (name, src) in workloads() {
        let prog = pmlang::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let base =
            srdfg::build(&prog, &Bindings::default()).unwrap_or_else(|e| panic!("{name}: {e}"));

        let mut vn = base.clone();
        CommonSubexpressionElimination.run(&mut vn);
        srdfg::validate(&vn).unwrap_or_else(|e| panic!("{name}: VN CSE broke the graph: {e}"));

        let mut reference = base.clone();
        pairwise_cse_reference(&mut reference);
        srdfg::validate(&reference)
            .unwrap_or_else(|e| panic!("{name}: reference CSE broke the graph: {e}"));

        assert!(
            total_nodes(&vn) <= total_nodes(&reference),
            "{name}: VN left {} live nodes, pairwise reference {}",
            total_nodes(&vn),
            total_nodes(&reference)
        );

        let feeds = synthetic_feeds(&base);
        let out_vn = Machine::new(vn).invoke(&feeds).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out_ref =
            Machine::new(reference).invoke(&feeds).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Debug formatting compares NaN-tolerantly; both graphs perform the
        // same arithmetic, so even NaN patterns must coincide.
        let render = |m: &HashMap<String, Tensor>| {
            let mut rows: Vec<_> = m.iter().map(|(k, v)| format!("{k} = {v:?}")).collect();
            rows.sort();
            rows.join("\n")
        };
        assert_eq!(render(&out_vn), render(&out_ref), "{name}: outputs diverge");
    }
}

/// The fixpoint `PassManager`'s dirty bits are meant to shortcut: every
/// sweep runs every pass, and iteration stops after a sweep in which none
/// changed the graph (same cap of ten sweeps).
fn naive_fixpoint(graph: &mut SrDfg) -> Vec<(&'static str, PassStats)> {
    let passes: [Box<dyn Pass>; 6] = [
        Box::new(pm_passes::ConstantFold),
        Box::new(pm_passes::AlgebraicSimplify),
        Box::new(pm_passes::ConstantPropagation),
        Box::new(pm_passes::PruneUnusedInputs),
        Box::new(CommonSubexpressionElimination),
        Box::new(pm_passes::DeadNodeElimination),
    ];
    let mut totals: Vec<_> = passes.iter().map(|p| (p.name(), PassStats::default())).collect();
    for _ in 0..10 {
        let mut any = false;
        for (pass, (_, total)) in passes.iter().zip(&mut totals) {
            let stats = pass.run(graph);
            any |= stats.changed;
            total.merge(stats);
        }
        if !any {
            break;
        }
    }
    totals
}

/// Skipping passes that have seen no change since their last run must not
/// alter what the standard pipeline converges to, nor how many rewrites
/// each pass makes on the way: same graph, same per-pass totals as the
/// plain fixpoint, on every workload family, the two apps and 240
/// `pm-fuzz` programs.
#[test]
fn dirty_bit_fixpoint_matches_run_everything_fixpoint() {
    use rand::SeedableRng;

    let mut all: Vec<(String, String)> =
        workloads().into_iter().map(|(name, src)| (name.to_string(), src)).collect();
    all.push(("brain_stimul-64".into(), apps::brain_stimul(64, 8).source));
    all.push(("option_pricing-32".into(), apps::option_pricing(32, 8).source));
    for seed in 0..240 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let program = pm_fuzz::gen_program(&mut rng);
        all.push((format!("fuzz-{seed}"), program.to_pmlang()));
    }
    for (name, src) in all {
        let (prog, _) = pmlang::frontend(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let base =
            srdfg::build(&prog, &Bindings::default()).unwrap_or_else(|e| panic!("{name}: {e}"));

        let mut managed = base.clone();
        let got = PassManager::standard().run(&mut managed);
        let mut reference = base;
        let want = naive_fixpoint(&mut reference);

        assert_eq!(got, want, "{name}: per-pass totals (left: PassManager, right: naive)");
        assert_eq!(
            srdfg::graph_fingerprint(&managed),
            srdfg::graph_fingerprint(&reference),
            "{name}: converged graphs differ"
        );
    }
}

/// Algorithm 2 is the paper's single sweep: every node, in topological
/// order, appends `t_load`s, its compute fragment, then `t_store`s to its
/// own target's partition. Checked fragment-by-fragment on every workload
/// plus the two multi-partition apps.
#[test]
fn algorithm2_is_one_topological_sweep() {
    use pm_lower::FragmentKind;
    use std::collections::HashSet;

    let mut all = workloads();
    all.push(("brain_stimul-64", apps::brain_stimul(64, 8).source));
    all.push(("option_pricing-32", apps::option_pricing(32, 8).source));
    for (name, src) in all {
        let compiler = Compiler::cross_domain();
        let compiled =
            compiler.compile(&src, &Bindings::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let g = &compiled.graph;
        let host = &compiler.targets().host().name;

        // Every live node compiles to exactly one compute fragment.
        let mut part_of: HashMap<NodeId, usize> = HashMap::new();
        for (pi, p) in compiled.partitions.iter().enumerate() {
            for id in p.fragments.iter().filter_map(|f| f.node) {
                assert!(part_of.insert(id, pi).is_none(), "{name}: {id:?} compiled twice");
            }
        }
        assert_eq!(part_of.len(), g.node_count(), "{name}: a node has no compute fragment");
        let topo_pos: HashMap<NodeId, usize> =
            g.topo_order().into_iter().enumerate().map(|(i, id)| (id, i)).collect();
        let host_pi = compiled.partitions.iter().position(|p| p.target == *host);
        let boundary_out: HashSet<EdgeId> = g.boundary_outputs.iter().copied().collect();

        for (pi, p) in compiled.partitions.iter().enumerate() {
            let at = |what: &str, i: usize| format!("{name}/{}: fragment {i}: {what}", p.target);
            let mut loaded: HashSet<EdgeId> = HashSet::new();
            let mut last_pos = None;
            let mut i = 0;
            while i < p.fragments.len() {
                let first = i;
                while p.fragments[i].kind == FragmentKind::Load {
                    i += 1; // a trailing load would index past the end: loads precede a compute
                }
                let compute = &p.fragments[i];
                assert_eq!(
                    compute.kind,
                    FragmentKind::Compute,
                    "{}",
                    at("store before compute", i)
                );
                let id = compute.node.expect("compute fragments name their node");
                let node = g.node(id);
                assert!(last_pos < Some(topo_pos[&id]), "{}", at("out of topological order", i));
                last_pos = Some(topo_pos[&id]);

                // Loads: exactly the operands produced in another partition
                // (boundary inputs live on the host) that no earlier node of
                // this partition already loaded, in operand order.
                let mut want = Vec::new();
                for &e in &node.inputs {
                    let src = g.edge(e).producer.map_or(host_pi, |(n, _)| Some(part_of[&n]));
                    if src != Some(pi) && loaded.insert(e) {
                        want.push(e);
                    }
                }
                let got: Vec<EdgeId> =
                    p.fragments[first..i].iter().map(|f| f.arg.as_ref().unwrap().edge).collect();
                assert_eq!(got, want, "{}", at("loads", first));

                // Stores: exactly the results with a consumer in another
                // partition, or leaving an accelerator through the boundary.
                let want: Vec<EdgeId> = node
                    .outputs
                    .iter()
                    .copied()
                    .filter(|&e| {
                        g.edge(e).consumers.iter().any(|(c, _)| part_of[c] != pi)
                            || (boundary_out.contains(&e) && Some(pi) != host_pi)
                    })
                    .collect();
                i += 1;
                let first = i;
                while p.fragments.get(i).is_some_and(|f| f.kind == FragmentKind::Store) {
                    i += 1;
                }
                let got: Vec<EdgeId> =
                    p.fragments[first..i].iter().map(|f| f.arg.as_ref().unwrap().edge).collect();
                assert_eq!(got, want, "{}", at("stores", first));
            }
        }
    }
}
