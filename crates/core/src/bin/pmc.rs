//! `pmc` — the PolyMath compiler command-line interface.
//!
//! A subcommand takes exactly the flags listed for it here (and in
//! `COMMANDS`, which `pmc` with no arguments prints): anything else is an
//! `unknown flag` error, so a misspelt `--deny-warnings` cannot turn a gate
//! off. Every number is decimal or `0x`-prefixed hexadecimal.
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
//!     single JSON object instead of the partition summary, so `--format
//!     json` needs `--timings` and refuses `--fragments`.
//! pmc lint <file.pm> [--size ...] [--host-only] [--deny-warnings] [--format json]
//!     Run the cross-layer static-analysis lints (unused declarations,
//!     state carry notes, edge-metadata consistency, reduction races,
//!     unmarshaled domain crossings, lowering feasibility) against the
//!     cross-domain target map (or the host with --host-only). Exits
//!     non-zero on errors, or on warnings under --deny-warnings.
//!     `--format json` emits one JSON array instead of caret renderings.
//! pmc analyze <file.pm> [--size ...] [--host-only] [--deny-warnings] [--format json]
//!     Run the pm-analyze static verifiers: interval bounds proofs and
//!     initialization analysis over the srDFG, plus the DMA race lint
//!     (WAR on state buffers) over the compiled SoC schedule. Exits
//!     non-zero on errors, or on warnings under --deny-warnings.
//!     `--format json` emits one JSON array instead of caret renderings.
//! pmc fmt <file.pm> [--size ...]
//!     Pretty-print the program (canonical formatting) on stdout.
//! pmc ir <file.pm> [--size ...] [--target <name>]
//!     Print the srDFG as a textual listing (nodes, kernels, spaces).
//!     With --target, print the listing the compiler serves for that
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
//!     `--iters`, invokes repeatedly so `state` evolves (`--iters 0` runs
//!     once, like `Soc::run_trajectory`). Every run goes through the
//!     resilient SoC runtime; the chaos flags turn on its
//!     deterministic fault injection (retry/backoff, host-fallback
//!     re-lowering on persistent outages); `--chaos-seed`
//!     alone implies the transient profile, and `--chaos-profile off`
//!     output is byte-identical to a run without chaos flags. With
//!     `--format json` the chaos run prints a single JSON report
//!     (profile, fault/retry counters, fallbacks, partitions, outputs).
//! pmc serve [--addr host:port] [--shards N] [--workers N] [--queue N]
//!           [--max-inflight-cost N] [--host-only]
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
use std::sync::Arc;

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

/// Every subcommand as its usage line: the positionals it expects, then
/// each flag it takes in brackets — one written with a value hint
/// (`[--size name=value]`) takes one value. The reader, `usage()` and the
/// unknown-flag check all read this table.
const COMMANDS: &[&str] = &[
    "check <file.pm> [--size name=value]",
    "stats <file.pm> [--size name=value]",
    "dot <file.pm> [--size name=value]",
    "compile <file.pm> [--size name=value] [--host-only] [--pin comp=TARGET] [--fragments] \
     [--timings] [--format text|json]",
    "lint <file.pm> [--size name=value] [--host-only] [--deny-warnings] [--format text|json]",
    "analyze <file.pm> [--size name=value] [--host-only] [--deny-warnings] [--format text|json]",
    "fmt <file.pm> [--size name=value]",
    "ir <file.pm> [--size name=value] [--target NAME]",
    "lower <file.pm> [--size name=value] [--target NAME]",
    "run <file.pm> <feeds.txt> [--size name=value] [--iters N] [--chaos-seed N] \
     [--chaos-profile off|transient|hostile] [--max-retries N] [--format text|json]",
    "serve [--addr host:port] [--shards N] [--workers N] [--queue N] [--max-inflight-cost N] \
     [--host-only]",
    "soak [--seed N] [--profile off|transient|hostile] [--requests N] [--tenants N] \
     [--host-only] [--format text|json]",
    "fuzz [--seed N] [--cases N] [--smoke] [--minimize] [--corpus DIR] \
     [--chaos-profile off|transient|hostile] [--chaos-seed N] [--wire]",
];

fn usage() -> String {
    format!("usage: pmc {}", COMMANDS.join("\n       pmc "))
}

/// One invocation's command line, checked against its `COMMANDS` row.
struct Flags<'a> {
    positionals: Vec<&'a str>,
    /// `(name, value)` in command-line order.
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Splits `args` (subcommand first) into positionals and flags,
    /// refusing a flag the subcommand does not list.
    fn parse(args: &'a [String]) -> Result<Flags<'a>, String> {
        let Some(cmd) = args.first() else { return Err(usage()) };
        let row = COMMANDS
            .iter()
            .find(|row| row.split(' ').next() == Some(cmd))
            .ok_or_else(|| format!("unknown command `{cmd}`\n{}", usage()))?;
        // "cmd <positional>..." then one "--flag]" or "--flag hint]" each.
        let mut specs = row.split(" [").map(|spec| spec.trim_end_matches(']'));
        let positionals = specs.next().map_or(0, |head| head.matches('<').count());
        let specs: Vec<&str> = specs.collect();
        let mut rest = args[1..].iter().map(String::as_str);
        let mut flags = Flags { positionals: Vec::new(), given: Vec::new() };
        for _ in 0..positionals {
            match rest.next().filter(|a| !a.starts_with("--")) {
                Some(arg) => flags.positionals.push(arg),
                None => return Err(format!("usage: pmc {row}")),
            }
        }
        while let Some(arg) = rest.next() {
            let spec = specs
                .iter()
                .find(|spec| spec.split(' ').next() == Some(arg))
                .ok_or_else(|| format!("unknown flag `{arg}` for `pmc {cmd}`"))?;
            let value = match spec.split_once(' ') {
                None => None,
                Some((_, hint)) => {
                    Some(rest.next().ok_or_else(|| format!("{arg} expects {hint}"))?)
                }
            };
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// Every value given for a repeatable flag, in order.
    fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.given.iter().filter(move |(given, _)| *given == name).filter_map(|(_, v)| *v)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).next()
    }

    /// A numeric flag: decimal or `0x`-prefixed hexadecimal.
    fn number<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else { return Ok(None) };
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        let number = parsed.ok().and_then(|n| T::try_from(n).ok());
        number.map(Some).ok_or_else(|| format!("bad {name} value `{v}`"))
    }

    fn profile(&self, name: &str) -> Result<Option<pm_accel::ChaosProfile>, String> {
        self.value(name).map(str::parse).transpose()
    }

    /// `--format <text|json>` (defaulting to text): is it `json`?
    fn json(&self) -> Result<bool, String> {
        match self.value("--format") {
            None | Some("text") => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(format!("unknown --format `{other}` (expected text or json)")),
        }
    }

    /// Repeated `--size name=value` bindings.
    fn sizes(&self) -> Result<Bindings, String> {
        let mut bindings = Bindings::default();
        for spec in self.values("--size") {
            let (name, value) =
                spec.split_once('=').ok_or_else(|| format!("bad --size `{spec}`"))?;
            let value: i64 = value.parse().map_err(|_| format!("bad --size value `{value}`"))?;
            bindings.sizes.insert(name.to_string(), value);
        }
        Ok(bindings)
    }

    /// The compiler `--host-only` and repeated `--pin component=TARGET`
    /// overrides select.
    fn compiler(&self) -> Result<Compiler, String> {
        let mut compiler =
            if self.flag("--host-only") { Compiler::host_only() } else { Compiler::cross_domain() };
        for spec in self.values("--pin") {
            let (component, target) = spec
                .split_once('=')
                .filter(|(component, target)| !component.is_empty() && !target.is_empty())
                .ok_or_else(|| format!("bad --pin `{spec}`"))?;
            compiler = compiler.with_target_override(component, backend_spec(target)?);
        }
        Ok(compiler)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let cmd = args[0].as_str();
    match cmd {
        // These take no source file: programs are generated or arrive
        // over the wire.
        "fuzz" => return fuzz_cmd(&flags),
        "serve" => return serve_cmd(&flags),
        "soak" => return soak_cmd(&flags),
        _ => {}
    }
    let path = flags.positionals[0];
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bindings = flags.sizes()?;
    // The unlowered srDFG, as `stats`, `dot`, `ir` and `lower` show it.
    let build_graph =
        || Compiler::host_only().build_graph(&source, &bindings).map_err(|e| e.to_string());

    match cmd {
        "check" => {
            pmlang::frontend(&source).map_err(|e| e.to_string())?;
            println!("{path}: OK");
            Ok(())
        }
        "stats" => {
            let graph = build_graph()?;
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
            let graph = build_graph()?;
            print!("{}", srdfg::dot::to_dot(&graph));
            Ok(())
        }
        "compile" => {
            let compiler = flags.compiler()?;
            let json = flags.json()?;
            // The JSON rendering is the timings object and nothing else.
            if json && !flags.flag("--timings") {
                return Err(
                    "`pmc compile --format json` prints the timings: it needs --timings".into()
                );
            }
            if json && flags.flag("--fragments") {
                return Err("`pmc compile --fragments` prints text: it cannot be combined \
                            with --format json"
                    .into());
            }
            let (compiled, timings) =
                compiler.compile_timed(&source, &bindings).map_err(|e| e.to_string())?;
            if json {
                println!("{}", timings_json(&timings));
                return Ok(());
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
            if flags.flag("--fragments") {
                for part in compiled.partitions.iter() {
                    println!("\npartition {} ({} fragments):", part.target, part.fragments.len());
                    print_fragments(part, &compiled.graph);
                }
            }
            if flags.flag("--timings") {
                print_timings(&timings);
            }
            Ok(())
        }
        "lint" | "analyze" => {
            let (program, _) = pmlang::frontend(&source).map_err(|e| e.to_string())?;
            // No optimization passes: both should see the graph exactly as
            // the source wrote it, with every span intact.
            let graph = srdfg::build(&program, &bindings).map_err(|e| e.to_string())?;
            let compiler = flags.compiler()?;
            if cmd == "lint" {
                let diags = pm_analyze::lint(&program, &graph, compiler.targets());
                return report(&diags, &source, path, &flags, cmd);
            }
            let mut diags = pm_analyze::analyze_graph(&graph);
            // Hazard analysis needs the real compiled fragment plan; if the
            // pipeline fails downstream, the graph findings still render.
            match compiler.compile(&source, &bindings) {
                Ok(compiled) => {
                    diags.extend(pm_analyze::analyze_schedule(&compiled, compiler.targets()));
                }
                Err(e) => eprintln!("pmc: analyze: schedule hazard analysis skipped: {e}"),
            }
            report(&pm_analyze::finish(diags), &source, path, &flags, cmd)
        }
        "fmt" => {
            let (program, _) = pmlang::frontend(&source).map_err(|e| e.to_string())?;
            print!("{}", pmlang::print_program(&program));
            Ok(())
        }
        "ir" => {
            let graph = build_graph()?;
            let text = match flags.value("--target") {
                Some(name) => srdfg::dot::to_text(&*lower_for(graph, name)?),
                None => srdfg::dot::to_text(&graph),
            };
            print!("{text}");
            Ok(())
        }
        "lower" => {
            let target = flags
                .value("--target")
                .ok_or_else(|| "lower expects --target <name>".to_string())?;
            let graph = build_graph()?;
            println!("before lowering:");
            print_census(&graph);
            let graph = lower_for(graph, target)?;
            println!("after lowering for {target}:");
            print_census(&graph);
            Ok(())
        }
        "run" => {
            let (feeds, state) = parse_feeds(flags.positionals[1])?;
            // `--chaos-seed` without an explicit profile implies
            // `transient`, so the short form alone turns fault injection on.
            let seed: Option<u64> = flags.number("--chaos-seed")?;
            let profile = match flags.profile("--chaos-profile")? {
                Some(profile) => profile,
                None if seed.is_some() => pm_accel::ChaosProfile::Transient,
                None => pm_accel::ChaosProfile::Off,
            };
            let seed = seed.unwrap_or(0);
            let max_retries: u32 = flags.number("--max-retries")?.unwrap_or(3);
            let cfg = pm_accel::ChaosConfig::new(seed, profile).with_max_retries(max_retries);
            let json = flags.json()?;
            let compiler = Compiler::cross_domain();
            let compiled = compiler.compile(&source, &bindings).map_err(|e| e.to_string())?;
            let inputs = pm_accel::TrajectoryInputs {
                feeds: &feeds,
                state_seeds: &state,
                invocations: flags.number("--iters")?.unwrap_or(1),
            };
            let outcome = standard_soc()
                .run_trajectory(&compiled, &HashMap::new(), &cfg, Some(compiler.targets()), &inputs)
                .map_err(|e| e.to_string())?;
            if json {
                println!("{}", chaos_json(&cfg, &outcome));
                return Ok(());
            }
            print_outputs(&outcome.outputs);
            // A fault-free run prints the outputs alone — byte-identical
            // with and without `--chaos-profile off`.
            if profile == pm_accel::ChaosProfile::Off {
                return Ok(());
            }
            println!(
                "chaos: profile {profile}, seed {seed:#x}, max {max_retries} retries/fragment"
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
        _ => unreachable!("`Flags::parse` admits only the subcommands of COMMANDS"),
    }
}

/// The `pmc fuzz` subcommand: a whole differential-fuzzing campaign.
///
/// The undocumented `PMC_FUZZ_MISCOMPILE` environment variable arms the
/// sentinel miscompilation (a deliberate `add`→`sub` flip applied after
/// optimization) so CI can prove the harness actually detects bugs.
fn fuzz_cmd(flags: &Flags) -> Result<(), String> {
    let smoke = flags.flag("--smoke");
    let seed = flags.number("--seed")?.unwrap_or(if smoke { 0xC0FFEE } else { 0 });
    let cases: usize = flags.number("--cases")?.unwrap_or(if smoke { 10_000 } else { 1000 });
    if flags.flag("--wire") {
        return wire_fuzz_cmd(seed, cases);
    }
    let chaos =
        flags.profile("--chaos-profile")?.filter(|profile| *profile != pm_accel::ChaosProfile::Off);
    let chaos_seed = flags.number("--chaos-seed")?.unwrap_or(0);
    let minimize = flags.flag("--minimize") || smoke;
    let corpus_dir = flags.value("--corpus").map(std::path::PathBuf::from);
    let sabotage = std::env::var_os("PMC_FUZZ_MISCOMPILE").is_some_and(|v| v != "0");
    let cfg = pm_fuzz::FuzzConfig {
        seed,
        cases,
        diff: pm_fuzz::DiffConfig { sabotage, chaos, chaos_seed },
        minimize,
        corpus_dir,
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
fn soak_cmd(flags: &Flags) -> Result<(), String> {
    let defaults = polymath::SoakConfig::default();
    let cfg = polymath::SoakConfig {
        seed: flags.number("--seed")?.unwrap_or(defaults.seed),
        requests: flags.number("--requests")?.unwrap_or(defaults.requests),
        tenants: flags.number("--tenants")?.unwrap_or(defaults.tenants),
        host_only: flags.flag("--host-only"),
        profile: flags.profile("--profile")?.unwrap_or(defaults.profile),
    };
    let json = flags.json()?;
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
fn serve_cmd(flags: &Flags) -> Result<(), String> {
    let defaults = polymath::ServeConfig::default();
    let cfg = polymath::ServeConfig {
        shards: flags.number("--shards")?.unwrap_or(defaults.shards),
        workers: flags.number("--workers")?.unwrap_or(defaults.workers),
        queue_depth: flags.number("--queue")?.unwrap_or(defaults.queue_depth),
        host_only: flags.flag("--host-only"),
        max_inflight_cost: flags
            .number("--max-inflight-cost")?
            .unwrap_or(defaults.max_inflight_cost),
        poison_marker: None,
    };
    match flags.value("--addr") {
        Some(addr) => polymath::serve_tcp(&cfg, addr),
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

/// Prints the outputs of a run, sorted by name (the `pmc run` contract).
fn print_outputs(outputs: &std::collections::HashMap<String, srdfg::Tensor>) {
    let mut names: Vec<_> = outputs.keys().collect();
    names.sort();
    for name in names {
        println!("{name} = {}", outputs[name]);
    }
}

/// A JSON string literal, escaped as the serve wire protocol escapes.
fn json_str(s: &str) -> String {
    polymath::Json::Str(s.to_string()).render()
}

/// The `run --format json` rendering of a chaos trajectory (single line,
/// mirroring `--timings --format json`).
fn chaos_json(cfg: &pm_accel::ChaosConfig, outcome: &pm_accel::TrajectoryOutcome) -> String {
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
         \"replayed_invocations\":{},\"faults_injected\":{},\"retries\":{},\
         \"retried_dma_bytes\":{},\"virtual_ns\":{},\"fallbacks\":[{}],\"partitions\":[{}],\
         \"outputs\":{{{}}}}}",
        json_str(&cfg.plan.profile().to_string()),
        cfg.plan.seed(),
        cfg.max_retries,
        outcome.invocations,
        outcome.replayed_invocations,
        outcome.faults_injected,
        outcome.retries,
        outcome.retried_dma_bytes,
        outcome.virtual_ns,
        fallbacks.join(","),
        partitions.join(","),
        outputs.join(",")
    )
}

/// Compiles a graph for one named accelerator (host for everything else)
/// and returns the lowered graph that serves — the shared setup of the
/// `lower` and `ir --target` subcommands. Programs without any domain
/// annotation are forced onto the target's domain so they lower.
fn lower_for(mut graph: srdfg::SrDfg, target: &str) -> Result<Arc<srdfg::SrDfg>, String> {
    let spec = backend_spec(target)?;
    if graph.domain.is_none() && pm_passes::domains_used(&graph).is_empty() {
        graph.domain = Some(spec.domain);
    }
    let mut targets = pm_lower::TargetMap::host_only(pm_lower::AcceleratorSpec::general_purpose(
        "CPU",
        spec.domain,
    ));
    targets.set(spec);
    let (cache, budget) = (srdfg::TemplateCache::new(), srdfg::Budget::unlimited());
    let compiled = pm_passes::lower_and_compile(graph, &targets, Some(&cache), &budget);
    Ok(compiled.map_err(|e| e.to_string())?.0.graph)
}

/// Prints a partition's fragment stream, run-length-compressed so the
/// scalar fabrics' long op rows stay readable.
fn print_fragments(part: &pm_lower::AccProgram, graph: &srdfg::SrDfg) {
    let label = |f: &pm_lower::Fragment| match &f.arg {
        Some(a) => format!("{:<5} {}", f.op(graph), a.name()),
        None => f.op(graph).to_string(),
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
         \"post_lower\":{},\"compile\":{},\
         \"template_cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"inserts\":{},\"evictions\":{}}},\"total\":{}}}",
        s(t.frontend),
        s(t.build),
        s(t.midend),
        passes.join(","),
        s(t.lower),
        s(t.post_lower),
        s(t.compile),
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
    pm_accel::backend_named(name)
        .map(|backend| backend.accel_spec())
        .ok_or_else(|| format!("unknown target `{}`", name.to_ascii_uppercase()))
}

/// The tail `lint` and `analyze` share: print `diags` in the requested
/// format, then fail on errors, or on warnings under `--deny-warnings`.
fn report(
    diags: &[pm_analyze::Diagnostic],
    source: &str,
    path: &str,
    flags: &Flags,
    verb: &str,
) -> Result<(), String> {
    if flags.json()? {
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
    if warnings > 0 && flags.flag("--deny-warnings") {
        return Err(format!("{verb} found {warnings} warning(s) (--deny-warnings)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_numeric_flag_reads_hex_and_decimal_alike() {
        for row in COMMANDS {
            let cmd = row.split(' ').next().unwrap();
            for flag in row.split(" [").filter_map(|spec| spec.strip_suffix(" N]")) {
                let read = |text: &str| {
                    let mut args = vec![cmd.to_string()];
                    args.extend(row.matches('<').map(|_| "file".to_string()));
                    args.extend([flag.to_string(), text.to_string()]);
                    Flags::parse(&args).unwrap().number::<u64>(flag)
                };
                assert_eq!(read("0x10"), Ok(Some(16)), "pmc {cmd} {flag}");
                assert_eq!(read("16"), Ok(Some(16)), "pmc {cmd} {flag}");
                assert!(read("sixteen").unwrap_err().contains(flag), "pmc {cmd} {flag}");
            }
        }
    }
}
