//! `pm-benchmark` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! One process runs one workload: the `srdfg::store` interner is global
//! to the process, so workloads must not warm each other and
//! `peak_rss_mb` must start clean. Every metric is printed by name with
//! its unit; the last line is the result as one JSON object. Any wrong
//! output makes the exit code non-zero. See `README.md`.

mod catalogue;
mod compile_wl;
mod pipeline;
mod report;
mod serve_wl;
mod stats;
mod trace;

use polymath::Json;
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["compile-large", "compile-apps", "serve-warm", "serve-churn"];

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

/// Set-ups per run; `setup_s` is their median. Only the last is measured on.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        if flag == "--trace" {
            // Bare `--trace` means on; the driver passes `--trace 0|1`.
            args.trace = argv.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--workload" => args.workload = value,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Runs `setup` [`SETUPS`] times, tearing each down before the next;
/// returns the last with every set-up's duration in seconds.
fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = Instant::now();
        last = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), seconds)
}

fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    // `cargo run` sets the variable at run time; the compile-time value
    // serves a binary started by hand.
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = std::path::Path::new(&dir).join("out");
    let path = dir.join(format!("trace-{}.json", args.workload));
    let header = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
    ];
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(header).render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let setup_seconds;
    let mut first_compile_ms = None;
    if args.workload.starts_with("compile") {
        let (setup, seconds) = repeat_setup(
            || {
                let s = compile_wl::setup(&args.workload, args.seed, &mut report);
                first_compile_ms.get_or_insert(s.first_compile_ms);
                s
            },
            drop,
        );
        setup_seconds = seconds;
        if args.trace {
            compile_wl::run_traced(&setup, args.seconds, &mut tracer, &mut report);
        } else {
            compile_wl::run(&setup, args.seconds, &mut report);
        }
    } else {
        let (mut setup, seconds) = repeat_setup(
            || serve_wl::setup(&args.workload, args.seed, &mut report),
            serve_wl::Setup::shutdown,
        );
        setup_seconds = seconds;
        if args.trace {
            serve_wl::run_traced(&mut setup, args.seconds, &mut tracer, &mut report);
        } else {
            serve_wl::run(&mut setup, args.seconds, &mut report);
        }
        setup.shutdown();
    }
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report.timing("setup_s", "s", &setup_seconds);
    if let Some(first) = first_compile_ms {
        report.metric("core.compile_first_ms", first, "ms");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metric("env.nproc", nproc as f64, "count");
    if args.trace {
        match write_trace(args, &tracer) {
            Ok(path) => println!("trace written to {path}"),
            Err(why) => report.fail(why),
        }
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("pm-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for m in &report.metrics {
        println!("{:<44} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for why in &report.failures {
        println!("FAILED {why}");
    }
    let declared: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.result_line(declared, !args.trace) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("pm-benchmark: {why}");
            return ExitCode::FAILURE;
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
