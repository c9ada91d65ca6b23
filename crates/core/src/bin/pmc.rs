//! `pmc` — the PolyMath compiler command-line interface.
//!
//! ```text
//! pmc check <file.pm> [--size name=value ...]
//!     Parse and semantically check a PMLang program.
//! pmc stats <file.pm> [--size ...]
//!     Build the srDFG and print graph statistics.
//! pmc dot <file.pm> [--size ...]
//!     Emit the srDFG in Graphviz DOT syntax on stdout.
//! pmc compile <file.pm> [--size ...] [--host-only] [--pin comp=TARGET ...]
//!     Run the full pipeline (passes, lowering, accelerator IR) and print
//!     the per-target partition summary with cycle/energy estimates.
//!     `--pin` overrides one component's target (repeatable), so two
//!     accelerators can serve the same domain — e.g.
//!     `--pin blks=HyperStreams` while LR keeps the TABLA default.
//!     `--fragments` additionally dumps each partition's fragment stream
//!     (Algorithm 2's load/compute/store sequence).
//!     `--timings` appends a per-stage / per-pass wall-time account of the
//!     compilation itself (frontend, build, each mid-end pass, lowering,
//!     Algorithm 2); with `--format json` it prints that account as a
//!     single JSON object instead of the partition summary.
//! pmc lint <file.pm> [--size ...] [--host-only] [--deny-warnings] [--format json]
//!     Run the cross-layer static-analysis lints (unused declarations,
//!     state carry notes, edge-metadata consistency, reduction races,
//!     unmarshaled domain crossings, lowering feasibility) against the
//!     cross-domain target map (or the host with --host-only). Exits
//!     non-zero on errors, or on warnings under --deny-warnings.
//!     `--format json` emits one JSON array instead of caret renderings.
//! pmc analyze <file.pm> [--size ...] [--host-only] [--deny-warnings] [--format json]
//!     Run the pm-analyze static verifiers: abstract interpretation over
//!     the srDFG (shape/dtype re-inference, interval bounds proofs,
//!     initialization analysis) plus static hazard analysis of the
//!     compiled SoC schedule (missing DMA marshalling, WAR/WAW hazards
//!     on state buffers, cross-target deadlock). Exits non-zero on
//!     errors, or on warnings under --deny-warnings. `--format json`
//!     emits one JSON array instead of caret renderings.
//! pmc fmt <file.pm>
//!     Pretty-print the program (canonical formatting) on stdout.
//! pmc ir <file.pm> [--size ...] [--target <name>]
//!     Print the srDFG as a textual listing (nodes, kernels, spaces).
//!     With --target, print the listing *after* lowering for that
//!     accelerator instead (the refined scalar/stage-level IR).
//! pmc lower <file.pm> --target <name> [--size ...]
//!     Lower for one accelerator (TABLA | DECO | Graphicionado | RoboX |
//!     TVM-VTA | DnnWeaver | HyperStreams) and print the operation census
//!     before and after — the paper's granularity-refinement trajectory.
//! pmc run <file.pm> <feeds.txt> [--size ...] [--iters N]
//!         [--chaos-seed N] [--chaos-profile off|transient|hostile]
//!         [--max-retries K] [--format json]
//!     Compile cross-domain, execute the lowered program on the given
//!     feeds, and print the outputs. `feeds.txt` holds one tensor per
//!     line: `name dim dim ... = v v v ...` (no dims = scalar); prefix a
//!     line with `state ` to seed a persistent state variable. With
//!     `--iters`, invokes repeatedly so `state` evolves. The chaos flags
//!     run the trajectory through the resilient SoC runtime with
//!     deterministic fault injection (retry/backoff, checkpoint/replay,
//!     host-fallback re-lowering on persistent outages); `--chaos-seed`
//!     alone implies the transient profile, and `--chaos-profile off`
//!     output is byte-identical to a run without chaos flags. With
//!     `--format json` the chaos run prints a single JSON report
//!     (profile, fault/retry counters, fallbacks, partitions, outputs).
//! pmc serve [--addr host:port] [--shards N] [--workers N] [--queue N]
//!           [--host-only]
//!     Long-lived compile-and-run service. Admits line-delimited JSON
//!     requests (PMLang program + feeds + chaos config) over stdin/stdout
//!     (default) or TCP (`--addr`), compiles each through a
//!     content-addressed program cache (repeat submissions skip lowering
//!     and Algorithm 2 entirely), and executes on a sharded pool of
//!     simulated SoCs with per-tenant shard affinity. A full admission
//!     queue rejects with a typed `overloaded` error. The `stats` op
//!     reports cache hit rates and pool-level execution counters; the
//!     `shutdown` op drains and exits. See `polymath::serve` for the
//!     full wire protocol.
//! pmc soak [--seed N] [--profile off|transient|hostile] [--requests N]
//!          [--tenants N] [--host-only] [--format json]
//!     Deterministic chaos soak of the serving layer: drive a live serve
//!     stack through a seed-derived multi-tenant workload (per-request
//!     chaos, deadline/fuel jitter, poison programs that panic a worker,
//!     admission storms), assert the resilience invariants (no worker
//!     death, every response typed, breaker convergence, quarantine
//!     stops repeat poisons), and run the whole workload twice to prove
//!     the transcript is byte-identical at the same seed. Exits non-zero
//!     on the first violated invariant. `--format json` prints the soak
//!     report as one JSON object (consumed by the benchmark harness).
//! pmc fuzz [--seed N] [--cases N] [--smoke] [--minimize] [--corpus DIR]
//!          [--chaos-profile P] [--chaos-seed N] [--wire]
//!     Differentially fuzz the whole stack: generate seeded random PMLang
//!     programs and run each through every route (interpreter at opt
//!     levels 0/1/2 with and without fusion, lowered + partitioned
//!     host-only and cross-domain), cross-checking outputs against the
//!     generator's model evaluator. `--smoke` is the fixed CI
//!     configuration (seed 0xC0FFEE). `--minimize` shrinks the first
//!     failure with delta debugging; `--corpus DIR` additionally writes
//!     the minimized reproducer as a self-contained `.pm` file there
//!     (replayed forever after by the regression suite). `--chaos-profile`
//!     adds the chaos route: every case also executes under fault
//!     injection and must match the oracle (or fail with a structured,
//!     minimizable diagnostic — never a panic). `--wire` switches to the
//!     serve@wire route instead: seeded byte mutations of valid request
//!     lines are fed to a live serve engine, and every one must yield a
//!     typed response — never a panic, never malformed output.
//! ```

use polymath::{standard_soc, Compiler};
use srdfg::Bindings;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pmc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    if cmd == "fuzz" {
        // `fuzz` takes no source file; everything after the command is flags.
        return fuzz_cmd(&args[1..]);
    }
    if cmd == "serve" {
        // `serve` takes no source file either; programs arrive over the wire.
        return serve_cmd(&args[1..]);
    }
    if cmd == "soak" {
        // `soak` generates its own workload from the seed.
        return soak_cmd(&args[1..]);
    }
    let Some(path) = args.get(1) else {
        return Err(usage());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bindings = parse_sizes(&args[2..])?;
    let host_only = args.iter().any(|a| a == "--host-only");

    match cmd.as_str() {
        "check" => {
            pmlang::frontend(&source).map_err(|e| e.to_string())?;
            println!("{path}: OK");
            Ok(())
        }
        "stats" => {
            let compiler = Compiler::host_only();
            let graph = compiler.build_graph(&source, &bindings).map_err(|e| e.to_string())?;
            let stats = pm_passes::stats(&graph);
            println!("graph `{}`", graph.name);
            println!("  nodes:          {}", stats.nodes);
            for (kind, count) in {
                let mut v: Vec<_> = stats.kinds.iter().collect();
                v.sort();
                v
            } {
                println!("    {kind:<12} {count}");
            }
            println!("  scalar ops:     {}", stats.scalar_ops);
            println!("  boundary bytes: {}", stats.boundary_bytes);
            println!("  critical path:  {}", pm_passes::critical_path_len(&graph));
            let domains = pm_passes::domains_used(&graph);
            if !domains.is_empty() {
                let names: Vec<_> = domains.iter().map(|d| d.keyword()).collect();
                println!("  domains:        {}", names.join(", "));
            }
            Ok(())
        }
        "dot" => {
            let compiler = Compiler::host_only();
            let graph = compiler.build_graph(&source, &bindings).map_err(|e| e.to_string())?;
            print!("{}", srdfg::dot::to_dot(&graph));
            Ok(())
        }
        "compile" => {
            let mut compiler =
                if host_only { Compiler::host_only() } else { Compiler::cross_domain() };
            for (component, target) in parse_pins(&args[2..])? {
                compiler = compiler.with_target_override(&component, backend_spec(&target)?);
            }
            // Only `--timings` pays for the static verifier's two analyses.
            let (compiled, timings) = if args.iter().any(|a| a == "--timings") {
                let (c, t) =
                    compiler.compile_timed(&source, &bindings).map_err(|e| e.to_string())?;
                (c, Some(t))
            } else {
                (compiler.compile(&source, &bindings).map_err(|e| e.to_string())?, None)
            };
            if let Some(timings) = &timings {
                if parse_format(args)? == "json" {
                    println!("{}", timings_json(timings));
                    return Ok(());
                }
            }
            let soc = standard_soc();
            let report = soc.run(&compiled, &HashMap::new()).map_err(|e| e.to_string())?;
            println!("{path}: {} partition(s)", compiled.partitions.len());
            for (part, pr) in compiled.partitions.iter().zip(&report.partitions) {
                let domain =
                    part.domain.map(|d| d.keyword().to_string()).unwrap_or_else(|| "host".into());
                println!(
                    "  [{domain:>4}] {:<14} {:>6} fragments  {:>12} ops  {:>10.3e} s  {:>10.3e} J",
                    pr.target,
                    part.fragments.len(),
                    part.compute_ops(),
                    pr.compute.seconds + pr.dma.seconds,
                    pr.compute.energy_j + pr.dma.energy_j,
                );
            }
            println!(
                "  total: {:.3e} s, {:.3e} J per invocation ({:.1}% communication)",
                report.total.seconds,
                report.total.energy_j,
                report.comm_fraction * 100.0
            );
            if args.iter().any(|a| a == "--fragments") {
                for part in compiled.partitions.iter() {
                    println!("\npartition {} ({} fragments):", part.target, part.fragments.len());
                    print_fragments(part);
                }
            }
            if let Some(timings) = &timings {
                print_timings(timings);
            }
            Ok(())
        }
        "lint" => {
            let (program, _) = pmlang::frontend(&source).map_err(|e| e.to_string())?;
            // No optimization passes: lints should see the graph exactly as
            // the source wrote it, with every span intact.
            let graph = srdfg::build(&program, &bindings).map_err(|e| e.to_string())?;
            let compiler = if host_only { Compiler::host_only() } else { Compiler::cross_domain() };
            let diags = pm_analyze::lint(&program, &graph, compiler.targets());
            report(&diags, &source, path, args, "lint")
        }
        "analyze" => {
            let (program, _) = pmlang::frontend(&source).map_err(|e| e.to_string())?;
            // Abstract interpretation runs on the un-optimized graph so
            // every finding still carries a span into the source.
            let graph = srdfg::build(&program, &bindings).map_err(|e| e.to_string())?;
            let mut diags = pm_analyze::analyze_graph(&graph);
            let compiler = if host_only { Compiler::host_only() } else { Compiler::cross_domain() };
            // Hazard analysis needs the real compiled fragment plan; if the
            // pipeline fails downstream, the graph findings still render.
            match compiler.compile(&source, &bindings) {
                Ok(compiled) => {
                    diags.extend(pm_analyze::analyze_schedule(&compiled, compiler.targets()));
                }
                Err(e) => eprintln!("pmc: analyze: schedule hazard analysis skipped: {e}"),
            }
            report(&pm_analyze::finish(diags), &source, path, args, "analyze")
        }
        "fmt" => {
            let (program, _) = pmlang::frontend(&source).map_err(|e| e.to_string())?;
            print!("{}", pmlang::print_program(&program));
            Ok(())
        }
        "ir" => {
            let compiler = Compiler::host_only();
            let mut graph = compiler.build_graph(&source, &bindings).map_err(|e| e.to_string())?;
            if let Some(pos) = args.iter().position(|a| a == "--target") {
                let name =
                    args.get(pos + 1).ok_or_else(|| "--target expects a name".to_string())?;
                lower_for(&mut graph, name)?;
            }
            print!("{}", srdfg::dot::to_text(&graph));
            Ok(())
        }
        "lower" => {
            let target = args
                .iter()
                .position(|a| a == "--target")
                .and_then(|p| args.get(p + 1))
                .ok_or_else(|| "lower expects --target <name>".to_string())?;
            let compiler = Compiler::host_only();
            let mut graph = compiler.build_graph(&source, &bindings).map_err(|e| e.to_string())?;
            println!("before lowering:");
            print_census(&graph);
            lower_for(&mut graph, target)?;
            println!("after lowering for {target}:");
            print_census(&graph);
            Ok(())
        }
        "run" => {
            let feeds_path = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "run expects a feeds file".to_string())?;
            let (feeds, state) = parse_feeds(feeds_path)?;
            let iters = parse_iters(&args[3..])?;
            let chaos = parse_chaos(&args[3..])?;
            let compiler = Compiler::cross_domain();
            let compiled = compiler.compile(&source, &bindings).map_err(|e| e.to_string())?;
            let format = parse_format(args)?;

            // The fault-free text path stays the plain interpreter loop —
            // byte-identical with and without `--chaos-profile off`.
            let chaos_off = match &chaos {
                None => true,
                Some(c) => c.profile == pm_accel::ChaosProfile::Off,
            };
            if format == "text" && chaos_off {
                let mut machine = srdfg::Machine::new(std::sync::Arc::clone(&compiled.graph));
                for (name, tensor) in state {
                    machine.set_state(&name, tensor);
                }
                let mut outputs = std::collections::HashMap::new();
                for _ in 0..iters {
                    outputs = machine.invoke(&feeds).map_err(|e| e.to_string())?;
                }
                print_outputs(&outputs);
                return Ok(());
            }

            let chaos = chaos.unwrap_or_default();
            let cfg = pm_accel::ChaosConfig::new(chaos.seed, chaos.profile)
                .with_max_retries(chaos.max_retries);
            let soc = standard_soc();
            let inputs = pm_accel::TrajectoryInputs {
                feeds: &feeds,
                state_seeds: &state,
                invocations: iters,
            };
            let outcome = soc
                .run_trajectory(&compiled, &HashMap::new(), &cfg, Some(compiler.targets()), &inputs)
                .map_err(|e| e.to_string())?;
            if format == "json" {
                println!("{}", chaos_json(&chaos, &outcome));
                return Ok(());
            }
            print_outputs(&outcome.outputs);
            println!(
                "chaos: profile {}, seed {:#x}, max {} retries/fragment",
                chaos.profile, chaos.seed, chaos.max_retries
            );
            println!(
                "  invocations: {} ({} replayed), faults: {}, retries: {}, \
                 dma retried: {} bytes, virtual time: {} ns",
                outcome.invocations,
                outcome.replayed_invocations,
                outcome.faults_injected,
                outcome.retries,
                outcome.retried_dma_bytes,
                outcome.virtual_ns
            );
            for fb in &outcome.fallbacks {
                println!("  fallback: {} -> host ({})", fb.target, fb.fault);
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// The `pmc fuzz` subcommand: a whole differential-fuzzing campaign.
///
/// The undocumented `PMC_FUZZ_MISCOMPILE` environment variable arms the
/// sentinel miscompilation (a deliberate `add`→`sub` flip applied after
/// optimization) so CI can prove the harness actually detects bugs.
fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| -> Result<Option<u64>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(pos) => {
                let v = args.get(pos + 1).ok_or_else(|| format!("{name} expects a number"))?;
                parse_u64(v).map(Some).map_err(|_| format!("bad {name} value `{v}`"))
            }
        }
    };
    let seed = flag_value("--seed")?.unwrap_or(if smoke { 0xC0FFEE } else { 0 });
    let cases = flag_value("--cases")?.unwrap_or(if smoke { 10_000 } else { 1000 }) as usize;
    if args.iter().any(|a| a == "--wire") {
        return wire_fuzz_cmd(seed, cases);
    }
    let chaos = match args.iter().position(|a| a == "--chaos-profile") {
        None => None,
        Some(pos) => {
            let v =
                args.get(pos + 1).ok_or_else(|| "--chaos-profile expects a value".to_string())?;
            let profile: pm_accel::ChaosProfile = v.parse()?;
            (profile != pm_accel::ChaosProfile::Off).then_some(profile)
        }
    };
    let chaos_seed = flag_value("--chaos-seed")?.unwrap_or(0);
    let minimize = args.iter().any(|a| a == "--minimize") || smoke;
    let corpus_dir = args
        .iter()
        .position(|a| a == "--corpus")
        .map(|pos| {
            args.get(pos + 1)
                .map(std::path::PathBuf::from)
                .ok_or_else(|| "--corpus expects a directory".to_string())
        })
        .transpose()?;
    let sabotage = std::env::var_os("PMC_FUZZ_MISCOMPILE").is_some_and(|v| v != "0");

    let cfg = pm_fuzz::FuzzConfig {
        seed,
        cases,
        diff: pm_fuzz::DiffConfig { sabotage, chaos, chaos_seed, ..Default::default() },
        minimize,
        corpus_dir,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let report = pm_fuzz::run_fuzz_with_progress(&cfg, &mut |done, unstable| {
        if done % 1000 == 0 {
            eprintln!("pmc fuzz: {done}/{cases} cases ({unstable} unstable)");
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    match report.failure {
        None => {
            println!(
                "fuzz: {} case(s) passed, {} unstable (seed {seed:#x}, {elapsed:.1}s)",
                report.passed, report.unstable
            );
            Ok(())
        }
        Some(f) => {
            eprintln!("fuzz: FAILURE at case {} (seed {seed:#x})", f.case);
            eprintln!("  route:  {}", f.failure.route);
            eprintln!("  detail: {}", f.failure.detail);
            if minimize {
                eprintln!(
                    "  minimized {} -> {} statement(s) in {} attempt(s)",
                    f.original_stmts,
                    f.program.stmt_count(),
                    f.shrink_attempts
                );
            }
            eprintln!("  inputs: x = {:?}", f.xs);
            eprintln!("          y = {:?}", f.ys);
            if f.program.has_state() {
                eprintln!("          z = {:?}", f.z0);
            }
            eprintln!("--- reproducer ---");
            eprint!("{}", f.program.to_pmlang());
            eprintln!("------------------");
            if let Some(path) = &f.reproducer {
                eprintln!("  reproducer written to {}", path.display());
            }
            Err(format!("differential mismatch after {} case(s) ({elapsed:.1}s)", report.executed))
        }
    }
}

/// The `pmc fuzz --wire` route: seeded byte-mutation fuzzing of the
/// serve wire protocol. Every mutated line must yield a typed response
/// from a live engine — never a panic, never malformed output.
fn wire_fuzz_cmd(seed: u64, cases: usize) -> Result<(), String> {
    let engine = polymath::ServeEngine::new(&polymath::ServeConfig {
        host_only: true,
        ..Default::default()
    });
    let corpus = polymath::serve::wire_corpus();
    let cfg = pm_fuzz::WireFuzzConfig { seed, cases };
    let start = std::time::Instant::now();
    // The checker panics are an expected campaign event (that is what the
    // oracle is hunting); keep the default hook from spamming stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let report = pm_fuzz::run_wire_fuzz(
        &cfg,
        &corpus,
        |line| polymath::Request::parse(line).is_err(),
        |line| polymath::serve::check_wire_line(&engine, line),
    );
    let _ = std::panic::take_hook();
    let elapsed = start.elapsed().as_secs_f64();
    match report.failure {
        None => {
            println!(
                "fuzz: serve@wire: {} mutated line(s) all yielded typed responses \
                 ({} no longer parseable; seed {seed:#x}, {elapsed:.1}s)",
                report.executed, report.mangled
            );
            Ok(())
        }
        Some(f) => {
            eprintln!("fuzz: serve@wire: FAILURE at case {} (seed {seed:#x})", f.case);
            eprintln!("  detail: {}", f.detail);
            eprintln!("--- mutated line ---");
            eprintln!("{}", f.line);
            eprintln!("--------------------");
            Err(format!("wire hardening violation after {} case(s)", report.executed))
        }
    }
}

/// The `pmc soak` subcommand: the deterministic chaos soak harness.
/// Drives a live serve stack through a seed-derived multi-tenant
/// workload (chaos, deadline jitter, poison programs, admission storms),
/// asserts the resilience invariants, and replays the whole run to prove
/// byte-identical determinism. See `polymath::soak`.
fn soak_cmd(args: &[String]) -> Result<(), String> {
    let flag_value = |name: &str| -> Result<Option<u64>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(pos) => {
                let v = args.get(pos + 1).ok_or_else(|| format!("{name} expects a number"))?;
                match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map(Some)
                .map_err(|_| format!("bad {name} value `{v}`"))
            }
        }
    };
    let defaults = polymath::SoakConfig::default();
    let mut cfg = polymath::SoakConfig {
        seed: flag_value("--seed")?.unwrap_or(defaults.seed),
        requests: flag_value("--requests")?.unwrap_or(defaults.requests as u64) as usize,
        tenants: flag_value("--tenants")?.unwrap_or(defaults.tenants as u64) as usize,
        host_only: args.iter().any(|a| a == "--host-only"),
        ..defaults
    };
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        let p = args.get(pos + 1).ok_or_else(|| "--profile expects a value".to_string())?;
        cfg.profile = p.parse()?;
    }
    let json = matches!(
        args.iter().position(|a| a == "--format").and_then(|p| args.get(p + 1)),
        Some(f) if f == "json"
    );
    // Worker panics are an expected part of the soak (poison programs);
    // silence the default hook so the report is the only output.
    std::panic::set_hook(Box::new(|_| {}));
    let result = polymath::run_soak(&cfg);
    let _ = std::panic::take_hook();
    let report = result?;
    if json {
        println!("{}", report.to_json().render());
    } else {
        println!(
            "soak: {} responses over {} tenant(s), seed {:#x}, profile {}",
            report.responses, report.tenants, report.seed, report.profile
        );
        for (kind, n) in &report.kinds {
            println!("  {kind:>18}  {n}");
        }
        println!(
            "  worker panics contained: {} (quarantined {} source(s), {} graph(s))",
            report.worker_panics, report.quarantined_sources, report.quarantined_graphs
        );
        println!(
            "  breakers: {} trip(s), {} request(s) steered to host fallback",
            report.breaker_trips, report.breaker_steered
        );
        println!("  replay: byte-identical");
    }
    Ok(())
}

/// The `pmc serve` subcommand: a long-lived compile-and-run service
/// speaking line-delimited JSON over stdin/stdout (default) or TCP
/// (`--addr host:port`). See `polymath::serve` for the wire protocol.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let flag_value = |name: &str| -> Result<Option<u64>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(pos) => {
                let v = args.get(pos + 1).ok_or_else(|| format!("{name} expects a number"))?;
                v.parse().map(Some).map_err(|_| format!("bad {name} value `{v}`"))
            }
        }
    };
    let defaults = polymath::ServeConfig::default();
    let cfg = polymath::ServeConfig {
        shards: flag_value("--shards")?.unwrap_or(defaults.shards as u64) as usize,
        workers: flag_value("--workers")?.unwrap_or(defaults.workers as u64) as usize,
        queue_depth: flag_value("--queue")?.unwrap_or(defaults.queue_depth as u64) as usize,
        host_only: args.iter().any(|a| a == "--host-only"),
        max_inflight_cost: flag_value("--max-inflight-cost")?.unwrap_or(defaults.max_inflight_cost),
        poison_marker: None,
    };
    match args.iter().position(|a| a == "--addr") {
        Some(pos) => {
            let addr = args.get(pos + 1).ok_or_else(|| "--addr expects host:port".to_string())?;
            polymath::serve_tcp(&cfg, addr)
        }
        None => polymath::serve_stdio(&cfg),
    }
}

/// Parses a feeds file: one tensor per line, `name dims... = values...`,
/// with `state `-prefixed lines seeding persistent state. Returns
/// `(feeds, state_seeds)`.
type Feeds = std::collections::HashMap<String, srdfg::Tensor>;

fn parse_feeds(path: &str) -> Result<(Feeds, Vec<(String, srdfg::Tensor)>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut feeds = Feeds::new();
    let mut state = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let is_state = if let Some(rest) = line.strip_prefix("state ") {
            line = rest.trim_start();
            true
        } else {
            false
        };
        let (head, values) = line
            .split_once('=')
            .ok_or_else(|| format!("{path}:{}: expected `name dims = values`", lineno + 1))?;
        let mut head_parts = head.split_whitespace();
        let name = head_parts
            .next()
            .ok_or_else(|| format!("{path}:{}: missing tensor name", lineno + 1))?;
        let shape: Vec<usize> = head_parts
            .map(|d| d.parse().map_err(|_| format!("{path}:{}: bad dim `{d}`", lineno + 1)))
            .collect::<Result<_, _>>()?;
        let data: Vec<f64> = values
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| format!("{path}:{}: bad value `{v}`", lineno + 1)))
            .collect::<Result<_, _>>()?;
        let tensor = srdfg::Tensor::from_vec(pmlang::DType::Float, shape, data)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if is_state {
            state.push((name.to_string(), tensor));
        } else {
            feeds.insert(name.to_string(), tensor);
        }
    }
    Ok((feeds, state))
}

fn parse_iters(args: &[String]) -> Result<u64, String> {
    if let Some(pos) = args.iter().position(|a| a == "--iters") {
        args.get(pos + 1)
            .ok_or_else(|| "--iters expects a count".to_string())?
            .parse()
            .map_err(|_| "bad --iters value".to_string())
    } else {
        Ok(1)
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal u64.
fn parse_u64(v: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    }
}

/// The `run` subcommand's chaos flags.
struct ChaosFlags {
    seed: u64,
    profile: pm_accel::ChaosProfile,
    max_retries: u32,
}

impl Default for ChaosFlags {
    fn default() -> Self {
        ChaosFlags { seed: 0, profile: pm_accel::ChaosProfile::Off, max_retries: 3 }
    }
}

/// Parses `--chaos-seed N`, `--chaos-profile {off|transient|hostile}` and
/// `--max-retries K`. Returns `None` when no chaos flag is present.
/// `--chaos-seed` without an explicit profile implies `transient`, so the
/// short form alone turns fault injection on.
fn parse_chaos(args: &[String]) -> Result<Option<ChaosFlags>, String> {
    let value_of = |name: &str| -> Result<Option<&String>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(pos) => {
                args.get(pos + 1).map(Some).ok_or_else(|| format!("{name} expects a value"))
            }
        }
    };
    let seed = value_of("--chaos-seed")?;
    let profile = value_of("--chaos-profile")?;
    let retries = value_of("--max-retries")?;
    if seed.is_none() && profile.is_none() && retries.is_none() {
        return Ok(None);
    }
    let mut flags = ChaosFlags::default();
    if let Some(v) = seed {
        flags.seed = parse_u64(v).map_err(|_| format!("bad --chaos-seed value `{v}`"))?;
    }
    match profile {
        Some(v) => flags.profile = v.parse()?,
        None if seed.is_some() => flags.profile = pm_accel::ChaosProfile::Transient,
        None => {}
    }
    if let Some(v) = retries {
        flags.max_retries = v.parse().map_err(|_| format!("bad --max-retries value `{v}`"))?;
    }
    Ok(Some(flags))
}

/// Prints the outputs of a run, sorted by name (the `pmc run` contract).
fn print_outputs(outputs: &std::collections::HashMap<String, srdfg::Tensor>) {
    let mut names: Vec<_> = outputs.keys().collect();
    names.sort();
    for name in names {
        println!("{name} = {}", outputs[name]);
    }
}

/// Minimal JSON string escape (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `run --format json` rendering of a chaos trajectory (single line,
/// mirroring `--timings --format json`).
fn chaos_json(flags: &ChaosFlags, outcome: &pm_accel::TrajectoryOutcome) -> String {
    let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_string() };
    let fallbacks: Vec<String> = outcome
        .fallbacks
        .iter()
        .map(|f| {
            format!(
                "{{\"target\":{},\"fault\":{},\"fragment\":{},\"op\":{},\"attempts\":{}}}",
                json_str(&f.target),
                json_str(&f.fault.to_string()),
                f.fragment,
                json_str(&f.op),
                f.attempts
            )
        })
        .collect();
    let partitions: Vec<String> = outcome
        .last
        .partitions
        .iter()
        .map(|p| {
            let domain = p.domain.map(|d| d.keyword().to_string()).unwrap_or_else(|| "host".into());
            format!(
                "{{\"target\":{},\"domain\":{},\"attempts\":{},\"retries\":{},\"faults\":{},\
                 \"retried_dma_bytes\":{},\"virtual_ns\":{}}}",
                json_str(&p.target),
                json_str(&domain),
                p.attempts,
                p.retries,
                p.faults_seen,
                p.retried_dma_bytes,
                p.virtual_ns
            )
        })
        .collect();
    let mut names: Vec<_> = outcome.outputs.keys().collect();
    names.sort();
    let outputs: Vec<String> = names
        .iter()
        .map(|name| {
            let vals = match outcome.outputs[*name].as_real_slice() {
                Some(s) => format!("[{}]", s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(",")),
                None => "null".to_string(),
            };
            format!("{}:{}", json_str(name), vals)
        })
        .collect();
    format!(
        "{{\"profile\":{},\"seed\":{},\"max_retries\":{},\"invocations\":{},\
         \"replayed_invocations\":{},\"checkpoints\":{},\"faults_injected\":{},\"retries\":{},\
         \"retried_dma_bytes\":{},\"virtual_ns\":{},\"fallbacks\":[{}],\"partitions\":[{}],\
         \"outputs\":{{{}}}}}",
        json_str(&flags.profile.to_string()),
        flags.seed,
        flags.max_retries,
        outcome.invocations,
        outcome.replayed_invocations,
        outcome.checkpoints,
        outcome.faults_injected,
        outcome.retries,
        outcome.retried_dma_bytes,
        outcome.virtual_ns,
        fallbacks.join(","),
        partitions.join(","),
        outputs.join(",")
    )
}

/// Lowers a graph for one named accelerator (host for everything else),
/// then elides interior marshalling — the shared setup of the `lower`
/// and `ir --target` subcommands. Programs without any domain annotation
/// are forced onto the target's domain so single-kernel programs lower.
fn lower_for(graph: &mut srdfg::SrDfg, target: &str) -> Result<(), String> {
    let spec = backend_spec(target)?;
    if graph.domain.is_none() && pm_passes::domains_used(graph).is_empty() {
        graph.domain = Some(spec.domain);
    }
    let mut targets = pm_lower::TargetMap::host_only(pm_lower::AcceleratorSpec::general_purpose(
        "CPU",
        spec.domain,
    ));
    targets.set(spec);
    pm_lower::lower(graph, &targets).map_err(|e| e.to_string())?;
    pm_passes::Pass::run(&pm_passes::ElideMarshalling, graph);
    Ok(())
}

/// Prints a partition's fragment stream, run-length-compressed so the
/// scalar fabrics' long op rows stay readable.
fn print_fragments(part: &pm_lower::AccProgram) {
    let label = |f: &pm_lower::Fragment| match f.kind {
        pm_lower::FragmentKind::Load => format!("load  {}", f.inputs[0].name()),
        pm_lower::FragmentKind::Store => format!("store {}", f.outputs[0].name()),
        pm_lower::FragmentKind::Compute => f.op.to_string(),
    };
    let mut i = 0;
    let frags = &part.fragments;
    let mut shown = 0;
    while i < frags.len() && shown < 40 {
        let head = label(&frags[i]);
        let mut j = i;
        while j < frags.len() && label(&frags[j]) == head {
            j += 1;
        }
        if j - i > 1 {
            println!("  {head:<24} x{}", j - i);
        } else {
            println!("  {head}");
        }
        shown += 1;
        i = j;
    }
    if i < frags.len() {
        println!("  ... {} more fragments", frags.len() - i);
    }
}

/// The operation census of a graph: name → count, sorted by frequency.
fn print_census(graph: &srdfg::SrDfg) {
    let mut census: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    fn walk(g: &srdfg::SrDfg, census: &mut std::collections::HashMap<String, usize>) {
        for (_, node) in g.iter_nodes() {
            *census.entry(node.name.to_string()).or_default() += 1;
            if let srdfg::NodeKind::Component(sub) = &node.kind {
                walk(sub, census);
            }
        }
    }
    walk(graph, &mut census);
    let mut rows: Vec<_> = census.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total: usize = rows.iter().map(|r| r.1).sum();
    for (name, count) in rows.iter().take(12) {
        println!("  {name:<14} {count}");
    }
    if rows.len() > 12 {
        println!("  ... {} more kinds", rows.len() - 12);
    }
    println!("  ({total} nodes total)");
}

/// Prints the per-stage / per-pass wall-time account of one compilation.
fn print_timings(t: &polymath::CompileTimings) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!("\ncompile timings:");
    println!("  frontend     {:>10.3} ms", ms(t.frontend));
    println!("  build        {:>10.3} ms", ms(t.build));
    println!("  mid-end      {:>10.3} ms", ms(t.midend));
    for p in &t.passes {
        println!(
            "    {:<24} {:>10.3} ms  {:>6} rewrites",
            p.pass,
            ms(p.duration),
            p.stats.rewrites
        );
    }
    println!("  lower        {:>10.3} ms", ms(t.lower));
    println!(
        "    templates: {} hits / {} misses ({:.1}% hit rate), {} inserts, {} evictions",
        t.cache.hits,
        t.cache.misses,
        t.cache.hit_rate() * 100.0,
        t.cache.inserts,
        t.cache.evictions
    );
    println!("  post-lower   {:>10.3} ms", ms(t.post_lower));
    println!("  compile      {:>10.3} ms", ms(t.compile));
    println!("  analyze      {:>10.3} ms", ms(t.analyze));
    println!("  hazards      {:>10.3} ms", ms(t.hazards));
    println!("  total        {:>10.3} ms", ms(t.total));
}

/// The `--timings --format json` rendering (all durations in seconds).
fn timings_json(t: &polymath::CompileTimings) -> String {
    let s = |d: std::time::Duration| format!("{:.9}", d.as_secs_f64());
    let passes: Vec<String> = t
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"pass\":\"{}\",\"seconds\":{},\"rewrites\":{},\"changed\":{}}}",
                p.pass,
                s(p.duration),
                p.stats.rewrites,
                p.stats.changed
            )
        })
        .collect();
    format!(
        "{{\"frontend\":{},\"build\":{},\"midend\":{},\"passes\":[{}],\"lower\":{},\
         \"post_lower\":{},\"compile\":{},\"analyze\":{},\"hazards\":{},\
         \"template_cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"inserts\":{},\"evictions\":{}}},\"total\":{}}}",
        s(t.frontend),
        s(t.build),
        s(t.midend),
        passes.join(","),
        s(t.lower),
        s(t.post_lower),
        s(t.compile),
        s(t.analyze),
        s(t.hazards),
        t.cache.hits,
        t.cache.misses,
        t.cache.hit_rate(),
        t.cache.inserts,
        t.cache.evictions,
        s(t.total)
    )
}

/// Resolves a backend name to its accelerator spec.
fn backend_spec(name: &str) -> Result<pm_lower::AcceleratorSpec, String> {
    use pm_accel::Backend as _;
    Ok(match name.to_ascii_uppercase().as_str() {
        "TABLA" => pm_accel::Tabla::default().accel_spec(),
        "DECO" => pm_accel::Deco::default().accel_spec(),
        "GRAPHICIONADO" => pm_accel::Graphicionado::default().accel_spec(),
        "ROBOX" => pm_accel::Robox::default().accel_spec(),
        "TVM-VTA" | "VTA" => pm_accel::Vta::default().accel_spec(),
        "DNNWEAVER" => pm_accel::DnnWeaver::default().accel_spec(),
        "HYPERSTREAMS" => pm_accel::HyperStreams::default().accel_spec(),
        other => return Err(format!("unknown target `{other}`")),
    })
}

/// Parses repeated `--pin component=TARGET` overrides.
fn parse_pins(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut pins = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--pin" {
            let spec =
                args.get(i + 1).ok_or_else(|| "--pin expects component=TARGET".to_string())?;
            let (component, target) =
                spec.split_once('=').ok_or_else(|| format!("bad --pin `{spec}`"))?;
            if component.is_empty() || target.is_empty() {
                return Err(format!("bad --pin `{spec}`"));
            }
            pins.push((component.to_string(), target.to_string()));
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(pins)
}

fn parse_sizes(args: &[String]) -> Result<Bindings, String> {
    let mut bindings = Bindings::default();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--size" {
            let spec = args.get(i + 1).ok_or_else(|| "--size expects name=value".to_string())?;
            let (name, value) =
                spec.split_once('=').ok_or_else(|| format!("bad --size `{spec}`"))?;
            let value: i64 = value.parse().map_err(|_| format!("bad --size value `{value}`"))?;
            bindings.sizes.insert(name.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(bindings)
}

/// Parses `--format <text|json>` (defaulting to text).
fn parse_format(args: &[String]) -> Result<&str, String> {
    match args.iter().position(|a| a == "--format") {
        None => Ok("text"),
        Some(pos) => match args.get(pos + 1).map(String::as_str) {
            Some(f @ ("text" | "json")) => Ok(f),
            Some(other) => Err(format!("unknown --format `{other}` (expected text or json)")),
            None => Err("--format expects text or json".to_string()),
        },
    }
}

/// The tail `lint` and `analyze` share: print `diags` in the requested
/// format, then fail on errors, or on warnings under `--deny-warnings`.
fn report(
    diags: &[pm_analyze::Diagnostic],
    source: &str,
    path: &str,
    args: &[String],
    verb: &str,
) -> Result<(), String> {
    if parse_format(args)? == "json" {
        println!("{}", pm_analyze::render_json(diags));
    } else {
        print!("{}", pm_analyze::render_text(diags, source, path));
    }
    let count = |sev| diags.iter().filter(|d| d.severity == sev).count();
    let (errors, warnings) =
        (count(pm_analyze::Severity::Error), count(pm_analyze::Severity::Warning));
    if errors > 0 {
        return Err(format!("{verb} found {errors} error(s)"));
    }
    if warnings > 0 && args.iter().any(|a| a == "--deny-warnings") {
        return Err(format!("{verb} found {warnings} warning(s) (--deny-warnings)"));
    }
    Ok(())
}

fn usage() -> String {
    "usage: pmc <check|stats|dot|compile|lint|analyze|run> <file.pm> [feeds.txt] \
[--size name=value ...] [--host-only] [--pin comp=TARGET ...] [--iters N] \
[--deny-warnings] [--timings] [--format json] [--chaos-seed N] \
[--chaos-profile off|transient|hostile] [--max-retries K]\n\
       pmc serve [--addr host:port] [--shards N] [--workers N] [--queue N] [--host-only]\n\
       pmc fuzz [--seed N] [--cases N] [--smoke] [--minimize] [--corpus DIR] \
[--chaos-profile P] [--chaos-seed N]"
        .to_string()
}
