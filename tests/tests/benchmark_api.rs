//! The API surface `benchmark/` is built against.
//!
//! `benchmark/` is a workspace of its own: the root `cargo build` and
//! `cargo test` never compile it, so a rename or a signature change in
//! the crates it imports would first show as a failed benchmark build.
//! This test makes the same calls with the same argument shapes as
//! `benchmark/src/{pipeline,compile_wl,serve_wl,catalogue}.rs`, so it
//! stops compiling — or fails — first. Keep the two in step.

use pm_accel::{ChaosConfig, Cpu, TrajectoryInputs};
use pm_lower::{
    compile_program_budgeted, lower_budgeted, CompiledProgram, FragmentKind, ProgramCache,
    ProgramKey, TargetMap,
};
use pm_passes::{Pass, PassManager};
use polymath::evaluate::estimate_all;
use polymath::{standard_soc, Compiler, Json, Request, ServeConfig, ServeEngine, ServeServer};
use srdfg::{Bindings, Budget, Machine, TemplateCache, TemplateCacheStats, Tensor};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};

const DOT: &str = "main(input float x[8], param float w[8], output float y) {
    index i[0:7];
    DA: y = sum[i](w[i]*x[i]);
}";

/// `benchmark/src/pipeline.rs::compile_stages`, without the spans.
fn staged_compile(
    targets: &TargetMap,
    templates: &TemplateCache,
    programs: Option<&ProgramCache>,
) -> (Arc<CompiledProgram>, bool) {
    let (program, _) = pmlang::frontend(DOT).unwrap();
    let mut graph = srdfg::build(&program, &Bindings::default()).unwrap();
    let passes = PassManager::standard().run(&mut graph);
    let _rewrites: usize = passes.iter().map(|(_, s)| s.rewrites).sum();
    let _ = (pm_analyze::analyze_graph(&graph).len(), graph.node_count());

    let key = programs.map(|cache| (cache, ProgramKey::new(&graph, targets)));
    if let Some((cache, key)) = &key {
        if let Some(hit) = cache.lookup(key) {
            return (hit, true);
        }
    }
    let unlimited = Budget::unlimited();
    // Not `pm_passes::lower_and_compile`: this pins the benchmark's own stages.
    lower_budgeted(&mut graph, targets, Some(templates), &unlimited).unwrap();
    pm_passes::ElideMarshalling.run(&mut graph);
    pm_passes::PruneUnusedInputs.run(&mut graph);
    let compiled =
        Arc::new(compile_program_budgeted(Arc::new(graph), targets, true, &unlimited).unwrap());
    if let Some((cache, key)) = key {
        cache.insert(key, Arc::clone(&compiled));
    }
    let _ = pm_analyze::analyze_schedule(&compiled, targets).len();
    (compiled, false)
}

fn tensor_json(values: &[f64]) -> Json {
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Num).collect());
    Json::Obj(vec![
        ("dims".into(), nums(&mut [values.len() as f64].into_iter())),
        ("values".into(), nums(&mut values.iter().copied())),
    ])
}

fn request_line(id: &str) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str(id.into())),
        ("tenant".into(), Json::Str("tenant-0".into())),
        ("program".into(), Json::Str(DOT.into())),
        ("invocations".into(), Json::Num(2.0)),
        (
            "feeds".into(),
            Json::Obj(vec![
                ("w".into(), tensor_json(&[0.5; 8])),
                ("x".into(), tensor_json(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])),
            ]),
        ),
        ("state".into(), Json::Obj(vec![])),
    ])
    .render()
}

fn served_ok(response: &str, cache: &str) {
    let v = Json::parse(response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{response}");
    assert_eq!(v.get("program_cache").and_then(Json::as_str), Some(cache), "{response}");
    for counter in ["retries", "fallbacks"] {
        assert_eq!(v.get(counter).and_then(Json::as_u64), Some(0), "{response}");
    }
    let y = v.get("outputs").and_then(|o| o.get("y")).and_then(|y| y.get("values")).unwrap();
    let y: Vec<Option<f64>> = y.as_array().unwrap().iter().map(Json::as_f64).collect();
    assert_eq!(y, [Some(18.0)]);
}

/// The benchmark's mirror hands `Machine::new` an owned deep clone; the
/// runtime hands it the program's `Arc`. Same constructor, same answers —
/// state carried across invocations included.
#[test]
fn machines_agree_whether_they_own_or_share_the_graph() {
    let acc = "main(input float x[4], state float acc[4], output float y[4]) {
        index i[0:3];
        DA: acc[i] = acc[i] + x[i];
        DA: y[i] = 2.0*acc[i];
    }";
    let compiled = Compiler::cross_domain().compile(acc, &Bindings::default()).unwrap();
    let x = Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    let feeds = HashMap::from([("x".to_string(), x)]);
    let mut owned = Machine::new((*compiled.graph).clone());
    let mut shared = Machine::new(Arc::clone(&compiled.graph));
    for k in 1..=3 {
        let out = owned.invoke(&feeds).unwrap();
        assert_eq!(out, shared.invoke(&feeds).unwrap());
        assert_eq!(out["y"].as_real_slice().unwrap()[3], 8.0 * f64::from(k));
    }
    assert_eq!(owned.state("acc"), shared.state("acc"));
}

#[test]
fn benchmark_surface_keeps_its_names_signatures_and_outcomes() {
    // compile_wl: a fresh driver per cycle, `Compiler::compile` twice, the
    // trajectory on the standard SoC, and Fig. 7's host-vs-SoC pricing.
    let compiler = Compiler::cross_domain();
    let fresh = compiler.compile(DOT, &Bindings::default()).unwrap();
    let before = compiler.cache_stats();
    let warm = compiler.compile(DOT, &Bindings::default()).unwrap();
    let delta: TemplateCacheStats = compiler.cache_stats().since(&before);
    assert!(delta.hits > 0 && delta.misses == 0 && delta.hit_rate() == 1.0, "{delta:?}");
    assert_eq!(fresh.partitions, warm.partitions);
    // The four counters the report sums over cycles, field by field.
    let mut sum = TemplateCacheStats::default();
    sum.hits += delta.hits;
    sum.misses += delta.misses;
    sum.bypassed += delta.bypassed;
    sum.evictions += delta.evictions;
    assert_eq!(sum.hit_rate(), 1.0);

    let soc = standard_soc();
    let targets: TargetMap = Compiler::cross_domain().targets().clone();
    let feeds = HashMap::from([
        ("x".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vec![1.0; 8]).unwrap()),
        ("w".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vec![2.0; 8]).unwrap()),
    ]);
    let state: Vec<(String, Tensor)> = Vec::new();
    let inputs = TrajectoryInputs { feeds: &feeds, state_seeds: &state, invocations: 2 };
    let outcome = soc
        .run_trajectory(&fresh, &HashMap::new(), &ChaosConfig::off(), Some(&targets), &inputs)
        .unwrap();
    assert_eq!(outcome.outputs["y"].scalar_value().unwrap(), 16.0);
    let priced = soc.run(&fresh, &HashMap::new()).unwrap();
    // The traced replay prices once per invocation on one SoC.
    assert_eq!(soc.run(&fresh, &HashMap::new()).unwrap(), priced);
    let host_only = Compiler::host_only().compile(DOT, &Bindings::default()).unwrap();
    let host = estimate_all(&Cpu::default(), &host_only, &Default::default());
    assert!(host.seconds > 0.0 && priced.total.seconds > 0.0);

    // pipeline: the same compile stage by stage against explicit caches,
    // program cache absent (mirrors `compile`) and present (mirrors serve).
    let templates = TemplateCache::new();
    let (staged, _) = staged_compile(&targets, &templates, None);
    assert_eq!(staged.partitions, fresh.partitions, "the staged mirror is the driver's pipeline");
    assert_eq!(*staged.graph, *fresh.graph);
    let stats = templates.stats();
    assert!(stats.misses > 0 && stats.bypassed > 0 && stats.evictions == 0, "{stats:?}");
    let programs = ProgramCache::new();
    assert!(!staged_compile(&targets, &templates, Some(&programs)).1);
    assert!(staged_compile(&targets, &templates, Some(&programs)).1);

    let (nodes, partitions) = (staged.graph.node_count(), staged.partitions.len());
    assert!(nodes > 0 && partitions > 0);
    let fragments = || staged.partitions.iter().flat_map(|p| &p.fragments);
    let dma = fragments().filter(|f| f.kind != FragmentKind::Compute).count();
    let dma_bytes: u64 = staged.partitions.iter().map(|p| p.dma_bytes()).sum();
    assert!(dma > 0 && dma_bytes > 0 && fragments().count() > dma);
    let sharing = srdfg::sharing_stats(&staged.graph);
    assert!(sharing.physical_bytes <= sharing.logical_bytes);
    let store = srdfg::store_stats();
    assert!(store.records() > 0 && store.bytes() > 0);
    let mut machine = Machine::new((*staged.graph).clone());
    for (name, value) in &state {
        machine.set_state(name, value.clone());
    }
    assert_eq!(machine.invoke(&feeds).unwrap()["y"].scalar_value().unwrap(), 16.0);

    // serve_wl: the in-process server, then the engine and its caches
    // directly, as the traced replay drives them.
    let cfg = ServeConfig { shards: 2, workers: 2, queue_depth: 64, ..Default::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let caches_before = (engine.compiler().program_cache_stats(), engine.compiler().cache_stats());
    let (tx, rx) = mpsc::channel();
    server.submit(request_line("c0-0"), tx).unwrap();
    served_ok(&rx.recv().unwrap(), "miss");
    served_ok(&engine.handle_line(&request_line("c0-1")), "hit");

    let line = request_line("c1-0");
    let Ok(Request::Run(run)) = Request::parse(&line) else { panic!("not a run: {line}") };
    assert_eq!((run.program.as_str(), run.tenant.as_str(), run.invocations), (DOT, "tenant-0", 2));
    let compiler = engine.compiler();
    let (templates, programs) = (compiler.template_cache(), compiler.program_cache());
    let (replayed, hit) = staged_compile(compiler.targets(), &templates, Some(&programs));
    assert!(hit, "the replay keys the engine's cache exactly as the engine does");
    let shard = engine.pool().shard(engine.pool().shard_for(&run.tenant));
    let inputs = TrajectoryInputs {
        feeds: &run.feeds,
        state_seeds: &run.state,
        invocations: run.invocations,
    };
    let chaos = ChaosConfig::off();
    let outcome = shard
        .run_trajectory(&replayed, &HashMap::new(), &chaos, Some(compiler.targets()), &inputs)
        .unwrap();
    assert_eq!(outcome.outputs["y"].scalar_value().unwrap(), 18.0);

    let pc = compiler.program_cache_stats().since(&caches_before.0);
    assert_eq!((pc.hits, pc.misses, pc.evictions, pc.entries), (2, 1, 0, 1));
    assert!((pc.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    let tc = compiler.cache_stats().since(&caches_before.1);
    assert!(tc.misses > 0 && tc.evictions == 0, "{tc:?}");
    let pool = engine.pool().report().total;
    assert_eq!((pool.retries, pool.fallbacks), (0, 0));
    assert!(pool.seconds > 0.0 && pool.energy_j > 0.0);
    server.shutdown();
}
