//! The traced run's replacement for each top-level call: its public
//! constituents, called in pipeline order with a span around each.
//!
//! `compile` mirrors `Compiler::compile` (and, given a program cache,
//! `Compiler::compile_cached`); `execute` mirrors what
//! `Soc::run_trajectory` does per invocation and then times the real
//! `run_trajectory` whole. If the compiler driver's stage order changes,
//! `core.compile_unattributed_frac` is where it shows.

use crate::report::{Report, Samples};
use crate::stats;
use crate::trace::Tracer;
use pm_accel::{ChaosConfig, Soc, TrajectoryInputs, TrajectoryOutcome};
use pm_lower::{
    compile_program_budgeted, lower_budgeted, CompiledProgram, FragmentKind, ProgramCache,
    ProgramKey, TargetMap,
};
use pm_passes::{Pass, PassManager};
use srdfg::{Bindings, Budget, Machine, TemplateCache, TemplateCacheStats, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// The shared state a compile runs against.
pub struct Caches<'a> {
    pub targets: &'a TargetMap,
    pub templates: &'a TemplateCache,
    /// `None` mirrors `Compiler::compile`, which bypasses the program cache.
    pub programs: Option<&'a ProgramCache>,
}

/// Counts read at the layer boundaries of one compile. All deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileFacts {
    pub source_bytes: f64,
    pub build_nodes: f64,
    pub midend_rewrites: f64,
    pub nodes_after: f64,
    pub program_cache_hit: bool,
    pub lowered_nodes: f64,
    pub fragments: f64,
    pub dma_fragments: f64,
    pub dma_bytes: f64,
    pub partitions: f64,
    pub diagnostics: f64,
    pub logical_bytes: f64,
    pub physical_bytes: f64,
}

fn artifact_facts(facts: &mut CompileFacts, compiled: &CompiledProgram) {
    let fragments = || compiled.partitions.iter().flat_map(|p| &p.fragments);
    facts.lowered_nodes = compiled.graph.node_count() as f64;
    facts.fragments = fragments().count() as f64;
    facts.dma_fragments = fragments().filter(|f| f.kind != FragmentKind::Compute).count() as f64;
    facts.dma_bytes = compiled.partitions.iter().map(|p| p.dma_bytes()).sum::<u64>() as f64;
    facts.partitions = compiled.partitions.len() as f64;
    let sharing = srdfg::sharing_stats(&compiled.graph);
    facts.logical_bytes = sharing.logical_bytes as f64;
    facts.physical_bytes = sharing.physical_bytes as f64;
}

/// One compile, stage by stage, under a span named `parent`. With
/// `analyze`, the static verifier runs afterwards under spans of its own:
/// neither `Compiler::compile` nor the serve path calls it, so it stays
/// out of the parent and out of the reconciliation.
pub fn compile(
    tr: &mut Tracer,
    op: u32,
    parent: &'static str,
    source: &str,
    caches: &Caches<'_>,
    analyze: bool,
) -> Result<(Arc<CompiledProgram>, CompileFacts), String> {
    let top = tr.open(parent, op);
    let staged = compile_stages(tr, op, source, caches, analyze);
    tr.close(top);
    let (compiled, mut facts, midend_graph) = staged?;
    if !facts.program_cache_hit {
        artifact_facts(&mut facts, &compiled);
    }
    if let Some(graph) = midend_graph {
        let findings = tr.leaf("analyze.graph", op, || pm_analyze::analyze_graph(&graph));
        let hazards = tr.leaf("analyze.hazards", op, || {
            pm_analyze::analyze_schedule(&compiled, caches.targets)
        });
        facts.diagnostics = (findings.len() + hazards.len()) as f64;
    }
    Ok((compiled, facts))
}

type Staged = (Arc<CompiledProgram>, CompileFacts, Option<srdfg::SrDfg>);

fn compile_stages(
    tr: &mut Tracer,
    op: u32,
    source: &str,
    caches: &Caches<'_>,
    keep_midend_graph: bool,
) -> Result<Staged, String> {
    let mut facts = CompileFacts { source_bytes: source.len() as f64, ..Default::default() };
    let (program, _) =
        tr.leaf("pmlang.frontend", op, || pmlang::frontend(source)).map_err(|e| e.to_string())?;
    let mut graph = tr
        .leaf("srdfg.build", op, || srdfg::build(&program, &Bindings::default()))
        .map_err(|e| e.to_string())?;
    facts.build_nodes = graph.node_count() as f64;
    let passes = tr.leaf("passes.midend", op, || PassManager::standard().run(&mut graph));
    facts.midend_rewrites = passes.iter().map(|(_, s)| s.rewrites).sum::<usize>() as f64;
    facts.nodes_after = graph.node_count() as f64;
    let midend_graph = keep_midend_graph.then(|| graph.clone());

    let key = match caches.programs {
        None => None,
        Some(cache) => {
            let key = tr.leaf("lower.progkey", op, || ProgramKey::new(&graph, caches.targets));
            if let Some(hit) = tr.leaf("lower.progcache.lookup", op, || cache.lookup(&key)) {
                facts.program_cache_hit = true;
                return Ok((hit, facts, None));
            }
            Some((cache, key))
        }
    };

    let unlimited = Budget::unlimited();
    tr.leaf("lower.alg1", op, || {
        lower_budgeted(&mut graph, caches.targets, Some(caches.templates), &unlimited)
    })
    .map_err(|e| e.to_string())?;
    tr.leaf("passes.post_lower", op, || {
        pm_passes::ElideMarshalling.run(&mut graph);
        pm_passes::PruneUnusedInputs.run(&mut graph);
    });
    let compiled = tr
        .leaf("lower.alg2", op, || {
            compile_program_budgeted(Arc::new(graph), caches.targets, true, &unlimited)
        })
        .map(Arc::new)
        .map_err(|e| e.to_string())?;
    if let Some((cache, key)) = key {
        tr.leaf("lower.progcache.insert", op, || cache.insert(key, Arc::clone(&compiled)));
    }
    Ok((compiled, facts, midend_graph))
}

/// What a trajectory runs on.
pub struct Inputs<'a> {
    pub feeds: &'a HashMap<String, Tensor>,
    pub state: &'a [(String, Tensor)],
    pub invocations: u64,
}

/// The top-level execution call, as every workload's untraced path makes it.
pub fn run_trajectory(
    soc: &Soc,
    compiled: &CompiledProgram,
    targets: &TargetMap,
    inputs: &Inputs<'_>,
) -> Result<TrajectoryOutcome, String> {
    let inputs = TrajectoryInputs {
        feeds: inputs.feeds,
        state_seeds: inputs.state,
        invocations: inputs.invocations,
    };
    soc.run_trajectory(compiled, &HashMap::new(), &ChaosConfig::off(), Some(targets), &inputs)
        .map_err(|e| e.to_string())
}

/// The real `run_trajectory` under `accel.trajectory`, whose outcome is
/// returned for checking, then the same execution stage by stage under
/// `core.execute`: the graph clone, then per invocation the SoC pricing
/// pass and the interpreter. The real call goes first so that, as in an
/// untraced cycle, it is the one that touches fresh memory.
pub fn execute(
    tr: &mut Tracer,
    op: u32,
    soc: &Soc,
    compiled: &CompiledProgram,
    targets: &TargetMap,
    inputs: &Inputs<'_>,
) -> Result<TrajectoryOutcome, String> {
    let outcome =
        tr.leaf("accel.trajectory", op, || run_trajectory(soc, compiled, targets, inputs));
    let top = tr.open("core.execute", op);
    let staged = (|| {
        let mut machine = tr.leaf("srdfg.graph_clone", op, || {
            let mut machine = Machine::new((*compiled.graph).clone());
            for (name, value) in inputs.state {
                machine.set_state(name, value.clone());
            }
            machine
        });
        for _ in 0..inputs.invocations {
            tr.leaf("accel.dispatch", op, || soc.run(compiled, &HashMap::new()))
                .map_err(|e| e.to_string())?;
            tr.leaf("srdfg.interp_invoke", op, || machine.invoke(inputs.feeds))
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })();
    tr.close(top);
    staged?;
    outcome
}

/// Span durations in milliseconds, keyed by span name and by the group of
/// the span's operation. Stages of a warm compile are dropped — they
/// equal the fresh compile's — except Algorithm 1, the one stage the
/// template cache changes, which is kept as `lower.alg1_warm`.
pub fn span_samples(tr: &Tracer, op_group: &[usize]) -> Samples {
    let mut samples = Samples::default();
    let spans = tr.spans();
    for s in spans {
        let warm = s.parent.is_some_and(|p| spans[p as usize].name == "core.compile_warm");
        let name = match (warm, s.name) {
            (false, name) => name,
            (true, "lower.alg1") => "lower.alg1_warm",
            (true, _) => continue,
        };
        samples.add(name, op_group[s.op_id as usize], s.ms());
    }
    samples
}

/// For the spans of one operation — those recorded since `first_span` —
/// adds Algorithm 1's and the interpreter's time per lowered node to
/// `rates`, in nanoseconds.
pub fn record_per_node(
    tr: &Tracer,
    first_span: usize,
    lowered_nodes: usize,
    group: usize,
    rates: &mut Samples,
) {
    let own = &tr.spans()[first_span..];
    let of = |name: &str| -> Vec<f64> {
        own.iter().filter(|s| s.name == name).map(|s| s.ms()).collect()
    };
    let per_node = 1e6 / lowered_nodes as f64;
    // The first is the fresh compile's; a warm one may follow.
    if let Some(alg1) = of("lower.alg1").first() {
        rates.add("alg1_ns_per_node", group, alg1 * per_node);
    }
    let invoke = of("srdfg.interp_invoke");
    if !invoke.is_empty() {
        rates.add("interp_ns_per_node", group, stats::mean(&invoke) * per_node);
    }
}

/// Reports what every workload's traced run reads the same way: each
/// stage's time (the mean over groups of the group's median span), the
/// per-node rates, the per-operation means of `facts`, and the store.
pub fn report_layers(
    traced: &Samples,
    rates: &Samples,
    facts: &[CompileFacts],
    report: &mut Report,
) {
    let stage = |span: &str| traced.mean_of_medians(span);
    for (metric, span) in [
        ("pmlang.frontend_ms", "pmlang.frontend"),
        ("srdfg.build_ms", "srdfg.build"),
        ("passes.midend_ms", "passes.midend"),
        ("passes.post_lower_ms", "passes.post_lower"),
        ("analyze.graph_ms", "analyze.graph"),
        ("analyze.hazards_ms", "analyze.hazards"),
        ("lower.alg1_ms", "lower.alg1"),
        ("lower.alg1_warm_ms", "lower.alg1_warm"),
        ("lower.alg2_ms", "lower.alg2"),
        ("srdfg.graph_clone_ms", "srdfg.graph_clone"),
        ("srdfg.interp_invoke_ms", "srdfg.interp_invoke"),
        ("accel.dispatch_ms", "accel.dispatch"),
        ("accel.trajectory_ms", "accel.trajectory"),
        ("core.serve.handle_ms", "core.serve.handle"),
    ] {
        report.metric(metric, stage(span), "ms");
    }
    for (metric, span) in [
        ("lower.progkey_us", "lower.progkey"),
        ("lower.progcache.lookup_us", "lower.progcache.lookup"),
        ("lower.progcache.insert_us", "lower.progcache.insert"),
        ("core.serve.parse_us", "core.serve.parse"),
        ("core.serve.compile_us", "core.serve.compile"),
    ] {
        report.metric(metric, stage(span) * 1e3, "us");
    }
    // Checkpoints, bookkeeping, and the first touch of fresh memory.
    let other = stage("accel.trajectory") - stage("core.execute");
    report.metric("accel.trajectory_other_ms", other, "ms");
    report.metric("lower.alg1_ns_per_node", rates.mean_of_medians("alg1_ns_per_node"), "ns");
    report.metric("srdfg.interp_ns_per_node", rates.mean_of_medians("interp_ns_per_node"), "ns");

    let mean = |f: fn(&CompileFacts) -> f64| stats::mean(&facts.iter().map(f).collect::<Vec<_>>());
    report.metric("pmlang.source_bytes", mean(|f| f.source_bytes), "bytes");
    report.metric("srdfg.build_nodes", mean(|f| f.build_nodes), "count");
    report.metric("passes.midend_rewrites", mean(|f| f.midend_rewrites), "count");
    report.metric("passes.nodes_after", mean(|f| f.nodes_after), "count");
    report.metric("analyze.diagnostics", mean(|f| f.diagnostics), "count");
    report.metric("lower.alg1_nodes", mean(|f| f.lowered_nodes), "count");
    report.metric("lower.alg2_fragments", mean(|f| f.fragments), "count");
    report.metric("lower.alg2_dma_fragments", mean(|f| f.dma_fragments), "count");
    report.metric("lower.alg2_dma_bytes", mean(|f| f.dma_bytes), "bytes");
    report.metric("lower.partitions", mean(|f| f.partitions), "count");
    let total = |f: fn(&CompileFacts) -> f64| facts.iter().map(f).sum::<f64>();
    let materialized = total(|f| f.physical_bytes) / total(|f| f.logical_bytes).max(1.0);
    report.metric("srdfg.store.materialized_frac", materialized, "ratio");
    let store = srdfg::store_stats();
    report.metric("srdfg.store.records", store.records() as f64, "count");
    report.metric("srdfg.store.bytes", store.bytes() as f64, "bytes");
}

pub fn report_template_cache(stats: &TemplateCacheStats, report: &mut Report) {
    report.metric("srdfg.template.hits", stats.hits as f64, "count");
    report.metric("srdfg.template.misses", stats.misses as f64, "count");
    report.metric("srdfg.template.bypassed", stats.bypassed as f64, "count");
    report.metric("srdfg.template.evictions", stats.evictions as f64, "count");
    report.metric("srdfg.template.hit_ratio", stats.hit_rate(), "ratio");
}
