#!/usr/bin/env bash
# Runs the benchmark and compares two sets of runs.
#
#   benchmark/run.sh [--runs N] [--seconds S] [--seed K] [--out FILE]
#       Builds once, then N times (default 3) runs every workload untraced
#       and traced, one process per run. Prints one row per metric and
#       workload — median, min-max — and writes every value to FILE
#       (default benchmark/out/runs.json).
#   benchmark/run.sh --compare A.json B.json
#       B against A, workload by workload: an end-to-end median may be
#       worse by at most the metric's bound in BENCHMARK.json; a
#       deterministic per-layer metric must be equal.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--compare" ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --compare A.json B.json" >&2; exit 2; }
    PM_A="$2" PM_B="$3" python3 - <<'PY'
import json, os, statistics, sys

spec = json.load(open("BENCHMARK.json"))
a, b = (json.load(open(os.environ[k])) for k in ("PM_A", "PM_B"))

# Per-layer metrics that depend on the inputs alone, not on how far a run
# got in its time: equal seeds must give equal values.
EXACT = {
    "compile": [
        "pmlang.source_bytes", "srdfg.build_nodes", "passes.midend_rewrites",
        "passes.nodes_after", "analyze.diagnostics", "lower.alg1_nodes",
        "lower.alg2_fragments", "lower.alg2_dma_fragments", "lower.alg2_dma_bytes",
        "lower.partitions", "srdfg.template.hits", "srdfg.template.misses",
        "srdfg.template.bypassed", "srdfg.template.evictions",
        "srdfg.store.materialized_frac", "accel.sim_seconds", "accel.sim_energy_j",
        "accel.comm_fraction", "accel.sim_speedup_geomean",
    ],
    "serve": ["lower.progcache.hit_ratio", "core.serve.rejected"],
}
EVERYWHERE = ["accel.retries", "accel.fallbacks"]

failed = 0
for w in (w["name"] for w in spec["workloads"]):
    for m in spec["end_to_end"]:
        ma, mb = (statistics.median(x[w][m["name"]]) for x in (a, b))
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"]
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:<14} {m['name']:<30} {ma:>14.4f} -> {mb:>14.4f} "
              f"{worse:+8.1%} worse (bound {m['bound']:.0%})")
    for name in EXACT[w.split("-")[0]] + EVERYWHERE:
        va, vb = set(a[w][name]), set(b[w][name])
        ok = len(va) == 1 and va == vb
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:<14} {name:<30} {sorted(va)} == {sorted(vb)}")
sys.exit(1 if failed else 0)
PY
    exit
fi

runs=3 seconds=15 seed=1 out=benchmark/out/runs.json
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        --out) out=$2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pm-benchmark"
mkdir -p "$(dirname "$out")"
lines=$(mktemp)
trap 'rm -f "$lines"' EXIT
for run in $(seq "$runs"); do
    for workload in compile-large compile-apps serve-warm serve-churn; do
        for trace in 0 1; do
            echo "== run $run/$runs $workload trace $trace" >&2
            result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" | tail -n 1)
            echo "$workload $result" >>"$lines"
        done
    done
done

PM_LINES="$lines" PM_OUT="$out" python3 - <<'PY'
import json, os, statistics

values = {}
for line in open(os.environ["PM_LINES"]):
    workload, result = line.split(" ", 1)
    result = json.loads(result)
    assert result["correct"], line
    for name, m in result["metrics"].items():
        values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
        values.setdefault("units", {})[name] = m["unit"]
json.dump(values, open(os.environ["PM_OUT"], "w"), indent=1)
units = values.pop("units")
for workload, metrics in values.items():
    for name, v in metrics.items():
        print(f"{workload:<14} {name:<34} {statistics.median(v):>16.4f} {units[name]:<6} "
              f"[{min(v):.4f} - {max(v):.4f}] n={len(v)}")
print("written to", os.environ["PM_OUT"])
PY
