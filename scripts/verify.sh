#!/usr/bin/env bash
# Full local verification: everything CI would gate a PR on.
# Usage: scripts/verify.sh
# It checks that the benchmark builds and answers correctly, not how fast
# it is. A change that claims a gain shows it with scripts/pairs.sh
# (alternating parent/change pairs, medians, quartiles, win count) and
# holds the other metrics with benchmark/run.sh --compare; a change that
# claims none shows every metric held with `scripts/pairs.sh ... all`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "== benchmark build + 2-second self-checking run of every workload"
# benchmark/ is a workspace of its own that the root build never sees.
# The binary checks every output against the reference model and every
# cache outcome against what the workload expects, and exits non-zero on
# any mismatch. Two seconds prove it builds and is correct, not how fast
# it is: for that, see benchmark/run.sh --compare. Untraced on purpose:
# the traced run also compares timings with each other, which a two-
# second run on a loaded CI host cannot hold.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in compile-large compile-apps serve-warm serve-churn; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1
done
# The benchmark is frozen between `benchmark` PRs: it has to build against
# this tree with no edit of its own. Every build rewrites its Cargo.lock
# (the committed one still lists crates since deleted), so put that back
# first; anything else that differs is an edit.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git checkout -- benchmark/Cargo.lock
    if [ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]; then
        echo "benchmark/ or BENCHMARK.json differs from the commit:" >&2
        git status --porcelain -- benchmark BENCHMARK.json >&2
        exit 1
    fi
fi

echo "== figures --dse (fabric sweeps + ablation invariants)"
# Deterministic simulated-cycle rows; the binary asserts that marshalling
# elision never lengthens the TABLA schedule and that a larger
# HyperStreams operator budget never slows the pipeline.
cargo run --release -q -p pm-bench --bin figures -- --dse

echo "== structural-sharing goldens at benchmark scale"
# The hash-consed store must be unobservable except through speed and
# memory: the committed goldens (captured from the flat pre-arena store)
# must hold at benchmark scale through every compile entry point.
cargo test --release -q -p pm-tests --test structural_sharing -- --include-ignored

echo "== pmc serve smoke (5 bench-family programs twice: cache + throughput gate)"
# The compile-once/serve-many contract end-to-end through the real
# binary: five bench-family programs submitted cold then resubmitted
# byte-identically. Every second-pass request must hit the
# content-addressed program cache (100%), warm outputs must be
# byte-identical to cold, and overall throughput must clear a lenient
# floor (catches deadlocks/hangs, not scheduler noise — and the gate
# retries once before failing).
serve_smoke() {
    python3 - <<'EOF'
import json, subprocess, sys, time

def t(dims, vals):
    return {"dims": dims, "values": vals}

def logistic(n):
    return ("main(input float x[%d], input float label, state float w[%d], output float prob) {"
            " index i[0:%d]; float mu;"
            " DA: prob = sigmoid(sum[i](w[i]*x[i]));"
            " DA: mu = (prob - label) * 0.1;"
            " DA: w[i] = w[i] - mu * x[i]; }" % (n, n, n - 1))

def kmeans(f, k):
    return ("main(input float x[%d], state float c[%d][%d], output float assign) {"
            " index i[0:%d], j[0:%d]; float dist[%d], best;"
            " DA: dist[j] = sum[i]((x[i] - c[j][i]) * (x[i] - c[j][i]));"
            " DA: assign = argmin[j](dist[j]);"
            " DA: best = min[j](dist[j]);"
            " DA: c[j][i] = c[j][i] + 0.05 * (dist[j] == best ? 1.0 : 0.0) * (x[i] - c[j][i]); }"
            % (f, k, f, f - 1, k - 1, k))

dct = ("main(input float blk[8][8], param float ck[8][8], output float out[8][8]) {"
       " index u[0:7], v[0:7], x[0:7], y[0:7];"
       " DSP: out[u][v] = sum[x][y](blk[x][y]*ck[u][x]*ck[v][y]); }")

blks = ("main(input float spot[32], input float strike[32], input float vol[32],"
        " param float rate, param float tte, output float call[32]) {"
        " index i[0:31]; float d1[32], d2[32];"
        " DA: d1[i] = (ln(spot[i]/strike[i]) + (rate + vol[i]*vol[i]*0.5)*tte) / (vol[i]*sqrt(tte));"
        " DA: d2[i] = d1[i] - vol[i]*sqrt(tte);"
        " DA: call[i] = spot[i]*phi(d1[i]) - strike[i]*exp(0.0 - rate*tte)*phi(d2[i]); }")

ramp = lambda n, s: [s * (i + 1) for i in range(n)]
programs = {
    "logistic-64": (logistic(64),
                    {"x": t([64], ramp(64, 0.01)), "label": t([], [1])},
                    {"w": t([64], [0.0] * 64)}),
    "logistic-256": (logistic(256),
                     {"x": t([256], ramp(256, 0.003)), "label": t([], [0])},
                     {"w": t([256], [0.0] * 256)}),
    "kmeans-16x4": (kmeans(16, 4),
                    {"x": t([16], ramp(16, 0.1))},
                    {"c": t([4, 16], ramp(64, 0.05))}),
    "dct-block": (dct,
                  {"blk": t([8, 8], ramp(64, 1.0)), "ck": t([8, 8], ramp(64, 0.01))},
                  None),
    "blackscholes-32": (blks,
                        {"spot": t([32], [100.0] * 32), "strike": t([32], ramp(32, 1.0)),
                         "vol": t([32], [0.2] * 32), "rate": t([], [0.03]), "tte": t([], [1])},
                        None),
}

lines = []
for pass_no in (1, 2):
    for name, (src, feeds, state) in programs.items():
        req = {"op": "run", "id": "%s#%d" % (name, pass_no), "tenant": name,
               "program": src, "invocations": 3, "feeds": feeds}
        if state:
            req["state"] = state
        lines.append(json.dumps(req))
lines.append(json.dumps({"op": "stats", "id": "stats"}))
lines.append(json.dumps({"op": "shutdown", "id": "bye"}))

start = time.monotonic()
out = subprocess.run(["target/release/pmc", "serve", "--workers", "1", "--shards", "2"],
                     input="\n".join(lines) + "\n", capture_output=True, text=True, timeout=300)
elapsed = time.monotonic() - start
if out.returncode != 0:
    sys.exit("serve exited %d: %s" % (out.returncode, out.stderr))

raw = {}
for line in out.stdout.splitlines():
    raw[json.loads(line)["id"]] = line
if len(raw) != len(lines):
    sys.exit("expected %d responses, got %d" % (len(lines), len(raw)))

def outputs_bytes(line):
    # Byte-identity over the rendered outputs member, not re-serialized.
    start = line.index('"outputs":')
    return line[start:line.index(',"invocations"')]

hits = 0
for name in programs:
    cold, warm = raw["%s#1" % name], raw["%s#2" % name]
    for r in (cold, warm):
        if '"ok":true' not in r:
            sys.exit("%s failed: %s" % (name, r))
    if '"program_cache":"miss"' not in cold:
        sys.exit("%s: first pass unexpectedly hit: %s" % (name, cold))
    if '"program_cache":"hit"' in warm:
        hits += 1
    else:
        sys.exit("%s: second pass missed the program cache: %s" % (name, warm))
    if outputs_bytes(cold) != outputs_bytes(warm):
        sys.exit("%s: warm outputs differ from cold" % name)

stats = json.loads(raw["stats"])
pc = stats["program_cache"]
if (pc["hits"], pc["misses"]) != (5, 5):
    sys.exit("program cache counters off: %s" % pc)
if not 0 < pc["bytes"] <= pc["capacity_bytes"]:
    sys.exit("program cache holds bytes outside (0, capacity_bytes]: %s" % pc)

reqs = 2 * len(programs)
throughput = reqs / elapsed
print("serve smoke: %d/%d second-pass hits, %.1f req/s (floor 1.0)" % (hits, len(programs), throughput))
sys.exit(0 if throughput >= 1.0 else 1)
EOF
}
for attempt in 1 2; do
    if serve_smoke; then
        break
    elif [ "$attempt" = 2 ]; then
        echo "serve smoke failed twice (cache miss or throughput floor)" >&2
        exit 1
    fi
    echo "serve smoke below throughput floor on attempt 1; retrying once to rule out noise"
done

echo "== serve differential suite"
cargo test --release -q -p pm-tests --test serve

echo "== resilience differential suite"
# Deadlines, circuit breakers, admission control, quarantine, drain, and
# wire hardening (DESIGN.md §15).
cargo test --release -q -p pm-tests --test resilience

echo "== pmc soak smoke (hostile profile, fixed seed, 200 requests)"
# The deterministic chaos soak is its own gate: the harness exits
# nonzero if any worker dies (beyond the contained poison), any response
# is untyped, the breakers fail to converge, or the second pass is not
# byte-identical to the first.
cargo run --release -p polymath --bin pmc -- soak --seed 0xC0FFEE \
    --profile hostile --requests 200 --tenants 4

echo "== pmc fuzz --wire smoke (2k mutated wire lines, fixed seed)"
# Every seeded byte-mutation of a valid wire line must yield a typed
# {kind, detail} error response — never a panic, never silence.
cargo run --release -p polymath --bin pmc -- fuzz --wire --seed 0xB17E --cases 2000

echo "== pmc analyze smoke"
# A clean example must pass, and the checked-in hazard demo must fail
# under --deny-warnings (it exists to exhibit a WAR DMA hazard) — an
# analyzer that stops seeing it would silently gut the schedule checks.
cargo run --release -q -p polymath --bin pmc -- analyze examples/pm/accumulator.pm
if cargo run --release -q -p polymath --bin pmc -- analyze \
    examples/pm/hazard_demo.pm --deny-warnings >/dev/null 2>&1; then
    echo "analyze: hazard_demo.pm unexpectedly passed --deny-warnings" >&2
    exit 1
fi

echo "== pmc lint smoke"
# The same pair for the lint entry point: a clean example passes, and the
# deliberately buggy demo (unused declarations, a write race, a stuck
# `argmax` on DECO) fails under --deny-warnings.
cargo run --release -q -p polymath --bin pmc -- lint examples/pm/accumulator.pm --deny-warnings
if cargo run --release -q -p polymath --bin pmc -- lint \
    examples/pm/lint_demo.pm --deny-warnings >/dev/null 2>&1; then
    echo "lint: lint_demo.pm unexpectedly passed --deny-warnings" >&2
    exit 1
fi

echo "== pmc flag smoke"
# A flag a subcommand does not list is an error, not a no-op: a misspelt
# gate must not pass, and a misspelt --cases must not run the default
# campaign and print "passed".
for typo in "lint examples/pm/lint_demo.pm --deny-warning" "fuzz --case 3"; do
    # shellcheck disable=SC2086
    if cargo run --release -q -p polymath --bin pmc -- $typo >/dev/null 2>&1; then
        echo "pmc $typo: unknown flag accepted" >&2
        exit 1
    fi
done

echo "== one refinement seam"
# Algorithm 1 decides how a node is refined in srdfg::template::Refinement
# and nowhere else, and SrDfg::instantiate is the one body that turns a
# refinement into nodes: the planner's names, a public refine/splice twin,
# a private splice helper or its edge-stamp flag must not come back.
if grep -rnE 'refine_for_splice|Plan::Deferred|first_of_fp|splice_template' crates ||
    grep -rnE 'fn refine\b|fn splice\b|fn splice_impl|stamp_edge_spans' crates/srdfg/src; then
    echo "a second spelling of Algorithm 1's refine/splice step is back" >&2
    exit 1
fi

echo "== one operator semantics"
# srdfg::kernel's eval_unary/eval_binary/eval_call define what a PMLang
# operator computes: compile-time sizes, constant folding and scalar nodes
# call them. A second size evaluator, a rounding integer read, a folder
# table of its own or a KExpr tree built per scalar node would be another
# meaning of the same operator.
if grep -nE 'fn const_eval_with|\.round\(\) as i64' crates/srdfg/src/build.rs ||
    sed -n '/^fn exec_scalar/,/^}/p' crates/srdfg/src/interp.rs | grep -n 'KExpr::' ||
    grep -n 'UnOp::Neg =>' crates/passes/src/fold.rs; then
    echo "an operator is defined outside srdfg::kernel again" >&2
    exit 1
fi

echo "== a fragment references the graph"
# Algorithm 2 emits a node id per compute fragment and one moved edge per
# load/store; operands are read through the graph where they are used.
# Argument-list copies or a per-fragment op name would put a heap block
# and refcount bumps back on every fragment.
if grep -nE 'Vec<ArgInfo>|op: Ident' crates/lower/src/compile.rs; then
    echo "Algorithm 2's Fragment copies its node's arguments again" >&2
    exit 1
fi

echo "== srDFG records at their information size"
# A node's id lists keep their spill in one boxed word, and scalar
# expansion names its nodes with static labels. A three-word `Vec` back in
# every id list, or a `String` built per scalar node, puts the bytes and
# the per-node allocations back on every node Algorithm 1 appends.
if grep -nE 'spill: Vec<|fn op_label\(.*\) -> String' crates/srdfg/src/{smallids,expand}.rs; then
    echo "SmallIds carries an inline Vec again, or op_label allocates per node" >&2
    exit 1
fi

echo "== one value in use, one constant"
# The expansion limit, chaos timing, breaker threshold and probes, and the
# fuzz generator each have exactly one value in use, so they are constants;
# fault draws come from the plan, keyed by the backend's name. A setting
# or hook nobody sets back in the API doubles what tests must cover.
if grep -rnE 'struct (ExpandOptions|BackoffPolicy|GenConfig)\b|fn inject_fault|failure_threshold|probes_to_close|pub expand:' crates; then
    echo "a one-value setting or the unimplemented inject_fault hook is back" >&2
    exit 1
fi

echo "== the SoC runtime keeps one account"
# A trajectory dispatches, then executes once; Soc::run is the chaos loop
# under the off profile; a served request is one SocPool::run. A state
# checkpoint, a second dispatch loop, a write-only fault log or a
# guard/record pair would be a second account of the same run.
if grep -rnE 'fn (checkpoint_states|restore_states|run_plain|record_served|breaker_guard)\b|struct (Carry|FaultEvent)\b|enum (Round|PartSim)\b|pub checkpoints:|MAX_RECORDED_FAULTS|ledgers: Mutex' crates; then
    echo "a second account of the SoC runtime is back" >&2
    exit 1
fi

echo "== a coarse kernel runs through its plan"
# exec_map/exec_reduce compile a node's kernels once into a KernelPlan and
# walk the box with srdfg's one Odometer. A tree walk per element, or a
# second enumerator of a box, puts the boxed KExpr walk and its per-element
# allocations back on every element of every coarse node.
if grep -nE 'for_each_point|\.eval\(idx' crates/srdfg/src/interp.rs ||
    grep -n 'fn for_each_point' crates/analyze/src/graph_lints.rs; then
    echo "a per-element tree walk or a second box enumerator is back" >&2
    exit 1
fi

echo "== one back half"
# Algorithm 1 -> cleanup -> Algorithm 2 is pm_passes::lower_and_compile; the
# compiler, pm-fuzz, pmc and the backend tests call it, so none of them
# names a cleanup pass. MapFusion, which no pipeline ran, stays deleted.
if grep -rn 'ElideMarshalling\|PruneUnusedInputs' crates/core crates/fuzz crates/accel \
    tests/tests/properties.rs || grep -rn 'MapFusion\|mapfusion' crates tests; then
    echo "a second spelling of the back half, or MapFusion, is back" >&2
    exit 1
fi

echo "== the front half is bounded and has one expression parser"
# The parser never recurses through, or builds, an expression deeper than
# sema's limit: 300,000 prefix `-` or `!`, right-associative `^` or
# left-associative `+` are each a located error, not a stack overflow
# (exit 134). Expressions are one precedence-climbing loop over a
# binding-power table; a function per precedence level beside it would be
# a second expression parser.
chains=$(mktemp -d)
for unit in '-' '!' '^x' '+x'; do
    python3 -c 'import sys
u = sys.argv[1]
e = u * 300000 + "x" if len(u) == 1 else "x" + u * 300000
print("main(input float x, output float y) { y = %s; }" % e)' "$unit" >"$chains/chain.pm"
    code=0
    err=$(cargo run --release -q -p polymath --bin pmc -- compile "$chains/chain.pm" 2>&1 >/dev/null) ||
        code=$?
    if [ "$code" != 1 ] || ! grep -q 'nesting exceeds' <<<"$err"; then
        echo "pmc compile of a 300,000-long '$unit' chain: exit $code, ${err:0:300}" >&2
        exit 1
    fi
done
rm -r "$chains"
if grep -nE 'fn (binary_level|or|and|equality|comparison|additive|multiplicative)\(' \
    crates/pmlang/src/parser.rs; then
    echo "a per-level precedence ladder is back beside the binding-power loop" >&2
    exit 1
fi

echo "== payloads are shared by construction"
# A Consed record is shared because one expansion built it, and freed with
# its last handle. A process-global intern table beside it would keep
# every record ever built and put a lock on every expansion again.
if grep -rnE 'struct Interner|fn interner\(|global_interner!|fn arena_id' crates; then
    echo "a process-global payload interner is back" >&2
    exit 1
fi

echo "== edge metadata is checked where it is born"
# Each node's shape/dtype rule is `NodeKind::check_edge_metas`: add_node
# panics on a claim that breaks it and srdfg::validate reports one made in
# place. A lattice re-derivation in the analyzer would be a second
# description of what a node produces.
if [ -e crates/analyze/src/shape.rs ] ||
    grep -rnE 'verify_types|EDGE_CONSISTENCY|PM-E003|ShapeDomain' crates ||
    grep -n 'pm-analyze' crates/passes/Cargo.toml; then
    echo "a second shape/dtype derivation is back" >&2
    exit 1
fi

echo "== an access is walked once"
# PM-E102/W103 and certify_bounds read the same per-kernel findings of one
# interval walk; a strict copy of the evaluator would be a second
# definition of what is proven in bounds.
if grep -nE 'strict_eval|strict_write|strict: bool|struct (Slots|SlotInfo)' crates/analyze/src/interval.rs; then
    echo "a second, strict kernel evaluator is back in pm-analyze" >&2
    exit 1
fi

echo "== one graph sweep"
# The srDFG is a DAG, so one pass in topological order is the fixpoint of
# every graph analysis; a worklist solver, its lattice traits and
# widening only ever ran on cyclic graphs, which validate rejects.
if [ -e crates/analyze/src/solver.rs ] || grep -rnE 'trait (Lattice|ForwardDomain)|fn widen' crates/analyze; then
    echo "a fixpoint solver is back in pm-analyze" >&2
    exit 1
fi

echo "== schedule checked where built"
# Algorithm 2's sweep makes every crossing marshalled and the streams
# deadlock-free; pm_lower::check_schedule checks that where the schedule
# is built, so no analyzer code or fuzz checker re-derives it.
if grep -rnE 'PM-E110|PM-E113|MISSING_MARSHAL|codes::DEADLOCK' crates || grep -rn 'fn check_partitions' crates/fuzz; then
    echo "a second check of Algorithm 2's schedule invariants is back" >&2
    exit 1
fi

echo "== one writer per state buffer"
# check_schedule refuses a store outside the partition that produces its
# value, so a state buffer has one writer and the race lint needs no
# second-writer search or all-pairs reachability table. The fragment
# contract (Fragment::defect) is stated once, not again in the SoC.
if grep -rnE 'PM-W112|DMA_WAW|struct Reachability|SuccVisitor' crates ||
    grep -n 'fn check_fragments' crates/accel/src/soc.rs; then
    echo "a second-writer race lint or a second fragment contract is back" >&2
    exit 1
fi

echo "== one compile pipeline"
# Compiler::pipeline is one fixed stage list: no switch turns a mid-end
# pass on or off, and no analysis runs there only to be thrown away.
if grep -rn 'let _ = pm_analyze' crates ||
    grep -nE 'fn with_fusion|fn without_optimizations|verify: bool' crates/core/src/compiler.rs; then
    echo "a pipeline switch or a discarded analysis is back in the compile driver" >&2
    exit 1
fi

echo "== one diagnostics crate"
# pm-analyze is the only diagnostics crate: a crates/lint beside it means
# a second Diagnostic type and a second spelling of Algorithm 1's failure
# rule.
if [ -e crates/lint ] || grep -rn 'pm_lint\|pm-lint' crates tests examples Cargo.toml; then
    echo "crates/lint or a reference to pm-lint is back" >&2
    exit 1
fi

echo "== pmc fuzz --smoke"
cargo run --release -p polymath --bin pmc -- fuzz --smoke

echo "== pmc fuzz chaos smoke (1k cases, transient faults, fixed seed)"
cargo run --release -p polymath --bin pmc -- fuzz --seed 0xC0FFEE --cases 1000 \
    --chaos-profile transient --chaos-seed 0xC0FFEE

echo "== chaos off-profile byte-identity"
plain=$(cargo run --release -q -p polymath --bin pmc -- run \
    examples/pm/accumulator.pm examples/pm/accumulator.feeds --iters 3)
off=$(cargo run --release -q -p polymath --bin pmc -- run \
    examples/pm/accumulator.pm examples/pm/accumulator.feeds --iters 3 \
    --chaos-profile off)
if [ "$plain" != "$off" ]; then
    echo "chaos: --chaos-profile off output differs from plain run" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$off") >&2 || true
    exit 1
fi

echo "verify: all checks passed"
