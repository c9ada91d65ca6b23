//! Integration tests for the `pmc` binary: every subcommand driven
//! through the real executable, pinning exit codes, output formats, and
//! flag handling.

use std::io::Write;
use std::process::{Command, Output};

const TWO_DOMAIN: &str = "filt(input float x[16], param float h[16], output float y) {
    index i[0:15];
    y = sum[i](h[i]*x[i]);
}
clas(input float f, param float w[2], output float c) {
    c = sigmoid(w[0]*f + w[1]);
}
main(input float sig[16], param float taps[16], param float w[2], output float cls) {
    float feat;
    DSP: filt(sig, taps, feat);
    DA: clas(feat, w, cls);
}";

const TWO_DA: &str = "a(input float x[8], param float w[8], output float y[8]) {
    index i[0:7];
    y[i] = w[i]*x[i];
}
b(input float y[8], output float z) {
    index i[0:7];
    z = sum[i](y[i]*y[i]);
}
main(input float x[8], param float w[8], output float z) {
    float y[8];
    DA: a(x, w, y);
    DA: b(y, z);
}";

/// Writes `content` to a fresh temp file and returns its path.
fn temp_file(tag: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pmc_cli_{tag}_{}.pm", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn pmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmc")).args(args).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_accepts_valid_program() {
    let f = temp_file("ok", TWO_DOMAIN);
    let out = pmc(&["check", f.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("OK"));
}

#[test]
fn check_rejects_with_located_diagnostic_and_exit_1() {
    let f = temp_file("bad", "main(input float x, output float y) { y = q; }");
    let out = pmc(&["check", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.starts_with("pmc: "), "{err}");
    assert!(err.contains("undeclared variable `q`"), "{err}");
    assert!(err.contains("1:43"), "{err}");
}

#[test]
fn compile_partitions_cross_domain() {
    let f = temp_file("compile", TWO_DOMAIN);
    let out = pmc(&["compile", f.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DECO"), "{text}");
    assert!(text.contains("TABLA"), "{text}");
    assert!(text.contains("% communication"), "{text}");
}

#[test]
fn compile_host_only_uses_the_cpu() {
    let f = temp_file("host", TWO_DOMAIN);
    let out = pmc(&["compile", f.to_str().unwrap(), "--host-only"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Xeon"), "{text}");
    assert!(!text.contains("DECO"), "{text}");
}

#[test]
fn compile_pin_splits_a_domain_across_targets() {
    let f = temp_file("pin", TWO_DA);
    let out = pmc(&["compile", f.to_str().unwrap(), "--pin", "a=HyperStreams", "--fragments"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("HyperStreams"), "{text}");
    assert!(text.contains("TABLA"), "{text}");
    // The fragment dump shows the cross-accelerator handoff.
    assert!(text.contains("partition HyperStreams"), "{text}");
    assert!(text.contains("store"), "{text}");
    assert!(text.contains("load"), "{text}");
}

#[test]
fn compile_pin_rejects_unknown_target() {
    let f = temp_file("pinbad", TWO_DA);
    let out = pmc(&["compile", f.to_str().unwrap(), "--pin", "a=NOPE"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown target `NOPE`"));
}

#[test]
fn compile_pin_requires_component_and_target() {
    let f = temp_file("pinarg", TWO_DA);
    for bad in [vec!["--pin"], vec!["--pin", "=TABLA"], vec!["--pin", "a="]] {
        let mut args = vec!["compile", f.to_str().unwrap()];
        args.extend(bad);
        let out = pmc(&args);
        assert!(!out.status.success(), "{:?} should fail", args);
    }
}

#[test]
fn compile_rejects_a_static_write_outside_its_target() {
    // `y[i+1]` writes y[4]: Algorithm 1 fails the compile with the target
    // named, instead of aborting with an index panic.
    let f = temp_file(
        "oobw",
        "main(input float x[4], output float y[4]) { index i[0:3]; DA: y[i+1] = x[i]; }",
    );
    let out = pmc(&["compile", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("pmc: lowering failed"), "{err}");
    assert!(err.contains("indexes `y` out of bounds: index 4 on axis 0 of size 4"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn compile_refuses_a_long_operator_chain_with_exit_1() {
    // 300,000 negations once overflowed the parser's stack (exit 134).
    let chain = "-".repeat(300_000);
    let f = temp_file("chain", &format!("main(input float x, output float y) {{ y = {chain}x; }}"));
    let out = pmc(&["compile", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("pmc: parse error at 1:172"), "{err}");
    assert!(err.contains("nesting exceeds"), "{err}");
}

#[test]
fn lower_prints_the_refinement_trajectory() {
    let f = temp_file("lower", TWO_DA);
    let out = pmc(&["lower", f.to_str().unwrap(), "--target", "TABLA"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("before lowering:"), "{text}");
    assert!(text.contains("after lowering for TABLA:"), "{text}");
    assert!(text.contains("mul"), "{text}");
}

#[test]
fn ir_target_prints_the_lowered_listing() {
    let f = temp_file("ir", TWO_DA);
    let coarse = pmc(&["ir", f.to_str().unwrap()]);
    let fine = pmc(&["ir", f.to_str().unwrap(), "--target", "TABLA"]);
    assert!(coarse.status.success() && fine.status.success());
    assert!(stdout(&coarse).contains("component"), "{}", stdout(&coarse));
    assert!(stdout(&fine).contains("unpack"), "{}", stdout(&fine));
    assert!(stdout(&fine).len() > stdout(&coarse).len());
}

#[test]
fn ir_target_shows_the_graph_the_compiler_serves() {
    let pagerank = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/pm/pagerank.pm");
    let out = pmc(&["ir", pagerank, "--target", "Graphicionado"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Operand pruning ran: the reduce reads only the products it sums.
    let sum = text.lines().find(|l| l.starts_with("n4 sum ")).unwrap_or_else(|| panic!("{text}"));
    assert!(sum.contains(": (matvec.elems:[4, 4]) -> (contrib.1:[4])"), "{sum}");
}

#[test]
fn run_executes_with_feeds_and_state() {
    let pm = temp_file(
        "runpm",
        "main(input float x[4], state float s, output float y) {
             index i[0:3];
             s = s + sum[i](x[i]);
             y = s;
         }",
    );
    let feeds = std::env::temp_dir().join(format!("pmc_cli_feeds_{}.txt", std::process::id()));
    std::fs::write(&feeds, "x 4 = 1 2 3 4\nstate s = 10\n").unwrap();
    let out = pmc(&["run", pm.to_str().unwrap(), feeds.to_str().unwrap(), "--iters", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    // 10 + 3*10 = 40 after three accumulating invocations.
    assert!(stdout(&out).contains("40"), "{}", stdout(&out));
}

#[test]
fn run_reports_missing_feeds() {
    let pm = temp_file("nofeed", "main(input float x, output float y) { y = x; }");
    let feeds = std::env::temp_dir().join(format!("pmc_cli_empty_{}.txt", std::process::id()));
    std::fs::write(&feeds, "").unwrap();
    let out = pmc(&["run", pm.to_str().unwrap(), feeds.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing feed"), "{}", stderr(&out));
}

#[test]
fn stats_reports_graph_shape() {
    let f = temp_file("stats", TWO_DOMAIN);
    let out = pmc(&["stats", f.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("nodes:"), "{text}");
    assert!(text.contains("domains:"), "{text}");
}

#[test]
fn fmt_roundtrips_through_check() {
    let f = temp_file("fmt", TWO_DOMAIN);
    let out = pmc(&["fmt", f.to_str().unwrap()]);
    assert!(out.status.success());
    let formatted = temp_file("fmt2", &stdout(&out));
    let out2 = pmc(&["check", formatted.to_str().unwrap()]);
    assert!(out2.status.success(), "{}", stderr(&out2));
}

#[test]
fn unknown_command_prints_usage() {
    let f = temp_file("usage", TWO_DOMAIN);
    let out = pmc(&["frobnicate", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = pmc(&["check", "/nonexistent/path.pm"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

/// Golden schema test for `pmc compile --timings --format json`: the JSON
/// object is a machine-readable interface (dashboards, CI perf tracking),
/// so its field names and shape are pinned here. Values are wall-clock
/// times and may vary; the *structure* may not.
#[test]
fn compile_timings_json_schema_is_stable() {
    let f = temp_file("timings", TWO_DOMAIN);
    let out = pmc(&["compile", f.to_str().unwrap(), "--timings", "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let json = text.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object: {json}");
    assert_eq!(json.lines().count(), 1, "must be a single-line object: {json}");

    // Exactly these top-level fields, in emission order.
    let parsed = polymath::Json::parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    let keys: Vec<&str> =
        parsed.members().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    let fields = [
        "frontend",
        "build",
        "midend",
        "passes",
        "lower",
        "post_lower",
        "compile",
        "template_cache",
        "total",
    ];
    assert_eq!(keys, fields, "{json}");

    // Every stage duration is a bare (non-quoted, non-scientific) number.
    for field in ["frontend", "build", "midend", "lower", "post_lower", "compile", "total"] {
        let key = format!("\"{field}\":");
        let rest = &json[json.find(&key).unwrap() + key.len()..];
        let value: String = rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        assert!(value.parse::<f64>().is_ok(), "field `{field}` is not a plain number: {rest:.20}");
    }

    // The per-pass array: one object per mid-end pass, each carrying
    // exactly the documented keys.
    let passes_start = json.find("\"passes\":[").expect("passes array") + "\"passes\":[".len();
    let passes = &json[passes_start..json[passes_start..].find(']').unwrap() + passes_start];
    let objects: Vec<&str> = passes.split("},").collect();
    assert!(!objects.is_empty() && !passes.is_empty(), "passes array is empty: {json}");
    for obj in &objects {
        for key in ["\"pass\":", "\"seconds\":", "\"rewrites\":", "\"changed\":"] {
            assert!(obj.contains(key), "pass entry missing {key}: {obj}");
        }
    }
    // The standard pipeline's workhorses are present and named stably.
    for pass in ["constant-fold", "algebraic-simplify", "cse", "dead-node-elimination"] {
        assert!(passes.contains(&format!("\"pass\":\"{pass}\"")), "missing pass `{pass}`: {json}");
    }
}

/// `pmc compile`'s JSON rendering is the timings object, so `--format
/// json` without `--timings` is a usage error, not the text summary.
#[test]
fn compile_format_json_without_timings_is_a_usage_error() {
    let f = temp_file("jsonnotimings", TWO_DOMAIN);
    let out = pmc(&["compile", f.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(stderr(&out).contains("needs --timings"), "{}", stderr(&out));
}

/// The fragment dump is text: under `--timings --format json` it would be
/// dropped, so the pair is refused.
#[test]
fn compile_fragments_with_format_json_is_a_usage_error() {
    let f = temp_file("jsonfragments", TWO_DOMAIN);
    let path = f.to_str().unwrap();
    let out = pmc(&["compile", path, "--timings", "--format", "json", "--fragments"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("--fragments") && err.contains("--format json"), "{err}");
}

/// Golden schema test for `pmc run --chaos-seed --format json`: like the
/// `--timings` JSON, the chaos report is a machine-readable interface, so
/// its field names and emission order are pinned here.
#[test]
fn run_chaos_json_schema_is_stable() {
    let pm = temp_file(
        "chaosjson",
        "main(input float x[4], state float s, output float y) {
             index i[0:3];
             s = s + sum[i](x[i]);
             y = s;
         }",
    );
    let feeds = std::env::temp_dir().join(format!("pmc_cli_chaosf_{}.txt", std::process::id()));
    std::fs::write(&feeds, "x 4 = 1 2 3 4\nstate s = 10\n").unwrap();
    let out = pmc(&[
        "run",
        pm.to_str().unwrap(),
        feeds.to_str().unwrap(),
        "--iters",
        "3",
        "--chaos-seed",
        "0x2a",
        "--chaos-profile",
        "transient",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let json = text.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object: {json}");
    assert_eq!(json.lines().count(), 1, "must be a single-line object: {json}");

    let fields = [
        "profile",
        "seed",
        "max_retries",
        "invocations",
        "replayed_invocations",
        "faults_injected",
        "retries",
        "retried_dma_bytes",
        "virtual_ns",
        "fallbacks",
        "partitions",
        "outputs",
    ];
    let mut last = 0;
    for field in fields {
        let key = format!("\"{field}\":");
        let pos = json.find(&key).unwrap_or_else(|| panic!("missing field `{field}`: {json}"));
        assert!(pos > last || field == "profile", "field `{field}` out of order: {json}");
        last = pos;
    }
    assert!(json.contains("\"profile\":\"transient\""), "{json}");
    assert!(json.contains("\"seed\":42"), "{json}");
    assert!(json.contains("\"invocations\":3"), "{json}");
    // Each partition entry carries the documented keys.
    let parts_start = json.find("\"partitions\":[").unwrap() + "\"partitions\":[".len();
    let parts = &json[parts_start..json[parts_start..].find(']').unwrap() + parts_start];
    for key in ["\"target\":", "\"domain\":", "\"attempts\":", "\"retries\":", "\"faults\":"] {
        assert!(parts.contains(key), "partition entry missing {key}: {parts}");
    }
    // Outputs are named tensors; the accumulator's final value is 40.
    assert!(json.contains("\"y\":[40]"), "{json}");
}

/// `--chaos-profile off` must leave `pmc run`'s text output byte-identical
/// to a run without any chaos flag — the no-chaos path is exactly the
/// legacy interpreter loop.
#[test]
fn run_chaos_off_is_byte_identical_to_plain_run() {
    let pm = temp_file(
        "chaosoff",
        "main(input float x[4], state float s, output float y) {
             index i[0:3];
             s = s + sum[i](x[i]);
             y = s;
         }",
    );
    let feeds = std::env::temp_dir().join(format!("pmc_cli_chaosoff_{}.txt", std::process::id()));
    std::fs::write(&feeds, "x 4 = 1 2 3 4\nstate s = 10\n").unwrap();
    let plain = pmc(&["run", pm.to_str().unwrap(), feeds.to_str().unwrap(), "--iters", "3"]);
    let off = pmc(&[
        "run",
        pm.to_str().unwrap(),
        feeds.to_str().unwrap(),
        "--iters",
        "3",
        "--chaos-profile",
        "off",
    ]);
    assert!(plain.status.success() && off.status.success());
    assert_eq!(plain.stdout, off.stdout, "off profile must not perturb output");
}

/// A hostile chaos run through the real binary: the text report appends
/// the chaos summary after the outputs, and the run still completes.
#[test]
fn run_hostile_chaos_prints_summary_and_completes() {
    let pm = temp_file("chaoshostile", TWO_DOMAIN);
    let feeds = std::env::temp_dir().join(format!("pmc_cli_chaosh_{}.txt", std::process::id()));
    let sig: Vec<String> = (0..16).map(|i| format!("{}", 0.1 * i as f64)).collect();
    std::fs::write(
        &feeds,
        format!("sig 16 = {}\ntaps 16 = {}\nw 2 = 1 0\n", sig.join(" "), vec!["1"; 16].join(" ")),
    )
    .unwrap();
    let out = pmc(&[
        "run",
        pm.to_str().unwrap(),
        feeds.to_str().unwrap(),
        "--chaos-seed",
        "3",
        "--chaos-profile",
        "hostile",
        "--max-retries",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cls ="), "{text}");
    assert!(text.contains("chaos: profile hostile, seed 0x3"), "{text}");
    assert!(text.contains("invocations: 1"), "{text}");
}

#[test]
fn run_rejects_unknown_chaos_profile() {
    let pm = temp_file("chaosbad", TWO_DOMAIN);
    let feeds = std::env::temp_dir().join(format!("pmc_cli_chaosbad_{}.txt", std::process::id()));
    std::fs::write(&feeds, "").unwrap();
    let out = pmc(&[
        "run",
        pm.to_str().unwrap(),
        feeds.to_str().unwrap(),
        "--chaos-profile",
        "chaotic-evil",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown chaos profile"), "{}", stderr(&out));
}

#[test]
fn fuzz_smoke_runs_clean() {
    // A tiny seeded campaign through the real binary: generation,
    // differential execution, and the summary line all work end-to-end.
    let out = pmc(&["fuzz", "--seed", "7", "--cases", "50"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("case(s) passed"), "{text}");
    assert!(text.contains("seed 0x7"), "{text}");
}

#[test]
fn fuzz_detects_the_sentinel_miscompile() {
    // With the hidden sentinel armed, the campaign must fail, print a
    // runnable reproducer, and exit non-zero.
    let out = Command::new(env!("CARGO_BIN_EXE_pmc"))
        .args(["fuzz", "--cases", "1000", "--minimize"])
        .env("PMC_FUZZ_MISCOMPILE", "1")
        .output()
        .unwrap();
    assert!(!out.status.success(), "sentinel miscompile went undetected");
    let err = stderr(&out);
    assert!(err.contains("FAILURE at case"), "{err}");
    assert!(err.contains("route:"), "{err}");
    assert!(err.contains("main("), "no reproducer printed:\n{err}");
}

#[test]
fn fuzz_rejects_bad_flags() {
    let out = pmc(&["fuzz", "--cases", "lots"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad --cases value"), "{}", stderr(&out));
}

/// Golden schema test for the `pmc serve` wire protocol: the service
/// speaks line-delimited JSON to remote clients, so the response field
/// names and emission order are a machine-readable interface and are
/// pinned here, exactly like the `--timings`/chaos JSON schemas above.
#[test]
fn serve_json_schema_is_stable() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_pmc"))
        .args(["serve", "--host-only", "--workers", "1", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let run_req = concat!(
        r#"{"op":"run","id":"r1","tenant":"alice","#,
        r#""program":"main(input float x[4], param float w[4], output float y) {"#,
        r#" index i[0:3]; y = sum[i](w[i]*x[i]); }","#,
        r#""feeds":{"x":{"dims":[4],"values":[1,2,3,4]},"w":{"dims":[4],"values":[2,2,2,2]}}}"#
    );
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{run_req}").unwrap();
        writeln!(stdin, "{}", run_req.replace("\"id\":\"r1\"", "\"id\":\"r2\"")).unwrap();
        writeln!(stdin, r#"{{"op":"stats","id":"s1"}}"#).unwrap();
        writeln!(stdin, r#"{{"op":"shutdown","id":"bye"}}"#).unwrap();
    }

    let reader = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited non-zero");
    assert_eq!(lines.len(), 4, "one response line per request: {lines:?}");
    let find = |id: &str| {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no response for id {id}: {lines:?}"))
    };
    let (cold, warm, stats, bye) = (find("r1"), find("r2"), find("s1"), find("bye"));

    // Run response: single-line JSON object, fields in pinned order.
    for json in [cold, warm] {
        assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object: {json}");
        let fields = [
            "id",
            "op",
            "ok",
            "tenant",
            "shard",
            "program_cache",
            "outputs",
            "invocations",
            "replayed_invocations",
            "faults_injected",
            "retries",
            "fallbacks",
            "virtual_ns",
            "frontend_us",
            "lower_us",
            "compile_us",
            "execute_us",
        ];
        let mut last = 0;
        for field in fields {
            let key = format!("\"{field}\":");
            let pos = json.find(&key).unwrap_or_else(|| panic!("missing field `{field}`: {json}"));
            assert!(pos > last || field == "id", "field `{field}` out of order: {json}");
            last = pos;
        }
        assert!(json.contains("\"ok\":true"), "{json}");
        assert!(json.contains("\"tenant\":\"alice\""), "{json}");
        // dot(w, x) with w = 2: y = 2*(1+2+3+4) = 20.
        assert!(json.contains("\"y\":{\"dims\":[],\"values\":[20]}"), "{json}");
    }
    assert!(cold.contains("\"program_cache\":\"miss\""), "{cold}");
    assert!(warm.contains("\"program_cache\":\"hit\""), "{warm}");
    // A cache hit skips lowering and compilation entirely.
    assert!(warm.contains("\"lower_us\":0,\"compile_us\":0"), "{warm}");

    // Outputs must be byte-identical between the cold and warm runs.
    let outputs = |json: &str| {
        let start = json.find("\"outputs\":").unwrap();
        json[start..json.find(",\"invocations\"").unwrap()].to_string()
    };
    assert_eq!(outputs(cold), outputs(warm), "warm outputs differ from cold");

    // Stats response: the counter groups, each with pinned keys; the price
    // memo was appended after every older key.
    let mut last = 0;
    for field in ["id", "op", "ok", "program_cache", "template_cache", "pool", "price_memo"] {
        let key = format!("\"{field}\":");
        let pos = stats.find(&key).unwrap_or_else(|| panic!("missing field `{field}`: {stats}"));
        assert!(pos > last || field == "id", "field `{field}` out of order: {stats}");
        last = pos;
    }
    for key in ["\"hits\":1", "\"misses\":1", "\"inserts\":1", "\"hit_rate\":0.5"] {
        assert!(stats.contains(key), "program cache counters wrong: {stats}");
    }
    assert!(stats.contains("\"shards\":2"), "{stats}");
    assert!(stats.contains("\"requests\":2"), "{stats}");

    assert!(bye.contains("\"op\":\"shutdown\"") && bye.contains("\"ok\":true"), "{bye}");
}

/// Malformed serve requests get typed, non-fatal error responses: the
/// service answers the bad line and keeps serving the good ones.
#[test]
fn serve_rejects_malformed_requests_without_dying() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_pmc"))
        .args(["serve", "--host-only", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "this is not json").unwrap();
        writeln!(stdin, r#"{{"op":"warp","id":"w1"}}"#).unwrap();
        writeln!(stdin, r#"{{"op":"run","id":"r1","program":"main(input float x, output float y) {{ y = q; }}"}}"#)
            .unwrap();
        writeln!(stdin, r#"{{"op":"shutdown","id":"bye"}}"#).unwrap();
    }
    let reader = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 4, "{lines:?}");
    let of_kind =
        |kind: &str| lines.iter().filter(|l| l.contains(&format!("\"kind\":\"{kind}\""))).count();
    assert_eq!(of_kind("bad_request"), 2, "{lines:?}");
    assert_eq!(of_kind("compile"), 1, "{lines:?}");
    for l in lines.iter().filter(|l| !l.contains("shutdown")) {
        assert!(l.contains("\"ok\":false"), "{l}");
        assert!(l.contains("\"error\":{"), "{l}");
    }
}

#[test]
fn serve_rejects_bad_flags() {
    let out = pmc(&["serve", "--workers", "many"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--workers"), "{}", stderr(&out));
}

#[test]
fn size_parameters_bind_from_the_command_line() {
    let f = temp_file(
        "size",
        "main(input float x[n], output float y, param int n) {
             index i[0:n-1];
             y = sum[i](x[i]);
         }",
    );
    let out = pmc(&["stats", f.to_str().unwrap(), "--size", "n=32"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

/// Every subcommand `pmc`'s own usage text lists refuses a flag it does
/// not know, before doing any work, and names the flag and itself.
#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    let pm = temp_file("unknownflag", TWO_DOMAIN);
    let usage = stderr(&pmc(&[]));
    let rows: Vec<&str> = usage.lines().filter_map(|l| l.split("pmc ").nth(1)).collect();
    assert_eq!(rows.len(), 13, "{usage}");
    for row in rows {
        let cmd = row.split(' ').next().unwrap();
        let mut args = vec![cmd];
        args.extend(row.matches('<').map(|_| pm.to_str().unwrap()));
        args.push("--no-such-flag");
        let out = pmc(&args);
        assert!(!out.status.success(), "`pmc {cmd}` accepted --no-such-flag");
        let expect = format!("unknown flag `--no-such-flag` for `pmc {cmd}`");
        assert!(stderr(&out).contains(&expect), "{cmd}: {}", stderr(&out));
    }
}

#[test]
fn run_reads_hex_iters_and_runs_once_for_zero() {
    let pm = temp_file(
        "hexiters",
        "main(input float x, state float s, output float y) { s = s + x; y = s; }",
    );
    let feeds = std::env::temp_dir().join(format!("pmc_cli_hexiters_{}.txt", std::process::id()));
    std::fs::write(&feeds, "x = 10\nstate s = 10\n").unwrap();
    let run = |iters: &str| {
        let out = pmc(&["run", pm.to_str().unwrap(), feeds.to_str().unwrap(), "--iters", iters]);
        assert!(out.status.success(), "--iters {iters}: {}", stderr(&out));
        stdout(&out)
    };
    assert_eq!(run("0x10"), run("16"));
    assert!(run("0").contains("20"), "`--iters 0` is one invocation, as in `run_trajectory`");
}
