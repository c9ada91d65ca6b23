//! `compile-large` and `compile-apps`: what `pmc compile`, `pmc run` and
//! the figures harness pay per program.
//!
//! One cycle of one program is a fresh `Compiler::cross_domain()`, a
//! `compile` (empty template cache), a second `compile` on the same driver
//! (warm template cache; `compile` bypasses the program cache), then
//! `standard_soc().run_trajectory` on the result. A round is one cycle of
//! every program; rounds repeat until the time is up.

use crate::catalogue::{self, Oracle, Program};
use crate::pipeline::{self, Caches, CompileFacts, Inputs};
use crate::report::{proc_status, Report, Samples};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use pm_accel::{Cpu, Soc, SocReport, TrajectoryOutcome};
use pm_lower::TargetMap;
use polymath::evaluate::estimate_all;
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, TemplateCache, TemplateCacheStats};
use std::collections::HashMap;
use std::time::Instant;

pub struct Setup {
    programs: Vec<Program>,
    soc: Soc,
    /// The first fresh compile of this setup, in milliseconds: in the
    /// process's first setup, what a one-shot CLI pays.
    pub first_compile_ms: f64,
}

fn inputs(p: &Program) -> Inputs<'_> {
    Inputs { feeds: &p.feeds, state: &p.state, invocations: p.invocations }
}

/// Checks a finished trajectory: right outputs, no retry, no fallback.
fn check_outcome(p: &Program, outcome: Result<TrajectoryOutcome, String>) -> Result<(), String> {
    let outcome = outcome.map_err(|e| format!("{}: {e}", p.name))?;
    if outcome.retries != 0 || !outcome.fallbacks.is_empty() {
        return Err(format!("{}: retried or fell back with chaos off", p.name));
    }
    catalogue::check_tensors(&p.expected, &outcome.outputs).map_err(|e| format!("{}: {e}", p.name))
}

/// Wall times of one untraced cycle, in milliseconds.
struct Cycle {
    fresh: f64,
    warm: f64,
    /// Whole trajectory; `None` for a program that is only priced.
    trajectory: Option<f64>,
}

fn cycle(p: &Program, soc: &Soc, report: &mut Report) -> Cycle {
    let compiler = Compiler::cross_domain();
    let bindings = Bindings::default();
    let mut timed_compile = || {
        let t = Instant::now();
        let compiled = compiler.compile(&p.source, &bindings);
        let elapsed = ms(t.elapsed());
        report.check(compiled.as_ref().map(drop).map_err(|e| format!("{}: {e}", p.name)));
        (compiled, elapsed)
    };
    let (_, fresh) = timed_compile();
    let (compiled, warm) = timed_compile();
    let mut trajectory = None;
    if let Ok(compiled) = compiled {
        if p.oracle == Oracle::NotExecuted {
            let priced = soc.run(&compiled, &HashMap::new());
            report.check(priced.map(drop).map_err(|e| format!("{}: {e}", p.name)));
        } else {
            let t = Instant::now();
            let outcome = pipeline::run_trajectory(soc, &compiled, compiler.targets(), &inputs(p));
            trajectory = Some(ms(t.elapsed()));
            report.check(check_outcome(p, outcome));
        }
    }
    Cycle { fresh, warm, trajectory }
}

/// Builds the programs, their seeded feeds and expected outputs and the
/// SoC, then runs one untimed round so that timed rounds start warm.
pub fn setup(workload: &str, seed: u64, report: &mut Report) -> Setup {
    let programs = match workload {
        "compile-large" => catalogue::compile_large(seed),
        _ => catalogue::compile_apps(seed),
    };
    let soc = standard_soc();
    let warm_up: Vec<Cycle> = programs.iter().map(|p| cycle(p, &soc, report)).collect();
    Setup { programs, soc, first_compile_ms: warm_up[0].fresh }
}

fn record(samples: &mut Samples, group: usize, p: &Program, c: &Cycle) {
    samples.add("fresh", group, c.fresh);
    samples.add("warm", group, c.warm);
    if let Some(trajectory) = c.trajectory {
        samples.add("trajectory", group, trajectory);
        samples.add("execute", group, trajectory / p.invocations as f64);
    }
}

/// Per-program rows: they explain the geometric means.
fn program_rows(setup: &Setup, samples: &Samples, report: &mut Report) {
    let rows = [
        ("core.compile_fresh_ms", "fresh"),
        ("core.compile_warm_ms", "warm"),
        ("core.execute_ms", "execute"),
    ];
    for (metric, key) in rows {
        for (p, group) in setup.programs.iter().zip(samples.groups(key)) {
            if group.is_empty() {
                continue;
            }
            report.timing(&format!("{metric}.{}", p.name), "ms", group);
            if let (Oracle::UnloweredGraph, "execute", Some(row)) =
                (p.oracle, key, report.metrics.last_mut())
            {
                row.note += " checked against the unlowered graph only (weaker oracle)";
            }
        }
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run(setup: &Setup, seconds: f64, report: &mut Report) {
    let mut samples = Samples::default();
    let mut cycles = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (group, p) in setup.programs.iter().enumerate() {
            record(&mut samples, group, p, &cycle(p, &setup.soc, report));
            cycles += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    program_rows(setup, &samples, report);
    report.note(
        "latency_ms",
        samples.geomean_of_medians("fresh"),
        "ms",
        "geomean over programs of the median fresh Compiler::compile".into(),
    );
    report.note(
        "execute_ms",
        samples.geomean_of_medians("execute"),
        "ms",
        "geomean over executed programs of median run_trajectory wall / invocations".into(),
    );
    report.note(
        "ops_per_s",
        cycles as f64 / wall,
        "1/s",
        format!("{cycles} program cycles in {wall:.3} s"),
    );
    report.metric("compile_warm_ms", samples.geomean_of_medians("warm"), "ms");
}

/// What the traced cycles of a run found, per program.
#[derive(Default)]
struct Traced {
    /// Program of each operation id.
    op_group: Vec<usize>,
    facts: Vec<CompileFacts>,
    /// One cycle's template-cache activity, fresh and warm compile together.
    templates: Vec<TemplateCacheStats>,
    rates: Samples,
}

/// One program's cycle stage by stage under spans, with the object
/// lifetimes of [`cycle`]: allocator state decides a good part of what a
/// stage costs, so the fresh artifact is dropped before the warm compile.
fn traced_cycle(
    setup: &Setup,
    group: usize,
    targets: &TargetMap,
    tr: &mut Tracer,
    traced: &mut Traced,
    report: &mut Report,
) {
    let p = &setup.programs[group];
    let op = traced.op_group.len() as u32;
    traced.op_group.push(group);
    let first_span = tr.spans().len();
    let templates = TemplateCache::new();
    let caches = Caches { targets, templates: &templates, programs: None };
    let named = |e: String| format!("{}: {e}", p.name);
    match pipeline::compile(tr, op, "core.compile_fresh", &p.source, &caches, true) {
        Ok((_, facts)) => {
            traced.facts[group] = facts;
            report.check(Ok(()));
        }
        Err(e) => report.check(Err(named(e))),
    }
    let warm = pipeline::compile(tr, op, "core.compile_warm", &p.source, &caches, false);
    traced.templates[group] = templates.stats();
    report.check(warm.as_ref().map(drop).map_err(|e| named(e.clone())));
    let Ok((compiled, _)) = warm else { return };
    if p.oracle == Oracle::NotExecuted {
        let priced = tr.leaf("accel.dispatch", op, || setup.soc.run(&compiled, &HashMap::new()));
        report.check(priced.map(drop).map_err(|e| named(e.to_string())));
    } else {
        let outcome = pipeline::execute(tr, op, &setup.soc, &compiled, targets, &inputs(p));
        report.check(check_outcome(p, outcome));
    }
    let lowered_nodes = compiled.graph.node_count();
    pipeline::record_per_node(tr, first_span, lowered_nodes, group, &mut traced.rates);
}

/// Simulated seconds, joules and communication share of one invocation on
/// the standard SoC, and the simulated time of the host-only compile
/// priced on the CPU model over the SoC's: Fig. 7's statistic. Exact; the
/// model is not validated against hardware.
fn simulate(p: &Program, soc: &Soc) -> Result<(SocReport, f64), String> {
    let compile = |compiler: Compiler| {
        compiler.compile(&p.source, &Bindings::default()).map_err(|e| format!("{}: {e}", p.name))
    };
    let priced = soc
        .run(&compile(Compiler::cross_domain())?, &HashMap::new())
        .map_err(|e| format!("{}: {e}", p.name))?;
    let host = estimate_all(&Cpu::default(), &compile(Compiler::host_only())?, &Default::default());
    let speedup = host.seconds / priced.total.seconds;
    Ok((priced, speedup))
}

/// The traced run: rounds alternate between every program's untraced
/// cycle and every program's cycle stage by stage under spans. Whole
/// rounds alternate, not cycles: a compile that directly follows another
/// compile of the same program recycles its memory and runs up to 20 %
/// faster, whichever of the two goes second.
pub fn run_traced(setup: &Setup, seconds: f64, tr: &mut Tracer, report: &mut Report) {
    let targets = Compiler::cross_domain().targets().clone();
    let programs = setup.programs.len();
    let mut untraced = Samples::default();
    let mut traced = Traced {
        facts: vec![CompileFacts::default(); programs],
        templates: vec![TemplateCacheStats::default(); programs],
        ..Default::default()
    };
    let mut threads = proc_status("Threads");
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (group, p) in setup.programs.iter().enumerate() {
            record(&mut untraced, group, p, &cycle(p, &setup.soc, report));
        }
        for group in 0..programs {
            traced_cycle(setup, group, &targets, tr, &mut traced, report);
        }
        threads = threads.max(proc_status("Threads"));
    }

    program_rows(setup, &untraced, report);
    let mut templates = TemplateCacheStats::default();
    for cycle in &traced.templates {
        templates.hits += cycle.hits;
        templates.misses += cycle.misses;
        templates.bypassed += cycle.bypassed;
        templates.evictions += cycle.evictions;
    }
    let spans = pipeline::span_samples(tr, &traced.op_group);
    let stage = |name: &str| spans.mean_of_medians(name);
    pipeline::report_layers(&spans, &traced.rates, &traced.facts, report);
    pipeline::report_template_cache(&templates, report);

    let mut speedups = Vec::new();
    let mut comm = Vec::new();
    let (mut sim_seconds, mut sim_energy) = (0.0, 0.0);
    for p in &setup.programs {
        match simulate(p, &setup.soc) {
            Err(why) => report.fail(why),
            Ok((priced, speedup)) => {
                sim_seconds += priced.total.seconds;
                sim_energy += priced.total.energy_j;
                comm.push(priced.comm_fraction);
                report.metric(&format!("accel.sim_speedup.{}", p.name), speedup, "x");
                speedups.push(speedup);
            }
        }
    }
    report.metric("accel.sim_seconds", sim_seconds, "s");
    report.metric("accel.sim_energy_j", sim_energy, "J");
    report.metric("accel.comm_fraction", stats::mean(&comm), "ratio");
    report.metric("accel.sim_speedup_geomean", stats::geomean(&speedups), "x");
    // Retries and fallbacks are checked to be 0 on every trajectory.
    report.metric("accel.retries", 0.0, "count");
    report.metric("accel.fallbacks", 0.0, "count");

    report.metric("core.compile_fresh_ms", untraced.geomean_of_medians("fresh"), "ms");
    report.metric("core.compile_warm_ms", untraced.geomean_of_medians("warm"), "ms");
    report.metric("core.execute_ms", untraced.geomean_of_medians("execute"), "ms");
    let stages = [
        "pmlang.frontend",
        "srdfg.build",
        "passes.midend",
        "lower.alg1",
        "passes.post_lower",
        "lower.alg2",
    ];
    let stage_sum: f64 = stages.iter().map(|s| stage(s)).sum();
    let unattributed = 1.0 - stage_sum / untraced.mean_of_medians("fresh");
    report.note(
        "core.compile_unattributed_frac",
        unattributed,
        "ratio",
        "1 - sum of traced stages / untraced Compiler::compile, fresh".into(),
    );
    if unattributed > 0.15 {
        report.fail(format!("stages leave {unattributed:.3} of Compiler::compile unattributed"));
    }
    let traced_total =
        stage("core.compile_fresh") + stage("core.compile_warm") + stage("accel.trajectory");
    let untraced_total = untraced.mean_of_medians("fresh")
        + untraced.mean_of_medians("warm")
        + untraced.mean_of_medians("trajectory");
    report.metric("trace.overhead_frac", traced_total / untraced_total - 1.0, "ratio");
    report.metric("trace.spans", tr.spans().len() as f64, "count");
    report.metric("env.threads", threads, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_expected_value_fails_the_run() {
        let soc = standard_soc();
        let mut p = catalogue::dct_block(3);
        let mut report = Report::default();
        cycle(&p, &soc, &mut report);
        assert_eq!((report.attempted, report.failed), (3, 0));
        assert!(report.passed());

        p.expected[0].1[7] += 1e-3;
        cycle(&p, &soc, &mut report);
        assert_eq!((report.attempted, report.failed), (6, 1));
        assert!(report.failures[0].contains("dct-block: output `out`[7]"), "{:?}", report.failures);
        // `main` turns this into a non-zero exit code.
        assert!(!report.passed());
        assert!(report.result_line(&[], false).unwrap().starts_with("{\"correct\":false,"));
    }
}
