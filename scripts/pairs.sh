#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads: the procedure
# the `choosing-metrics` guide (§8) asks of a change that claims a gain,
# and of one that claims none (every workload, every metric held).
#
#   scripts/pairs.sh <parent-bin> <change-bin> <workloads> [--pairs N] [--seed K]
#
# <workloads> is a comma-separated list of BENCHMARK.json workload names,
# or `all`; each gets its own run of pairs and its own table (ten pairs
# of all four take some twenty-five minutes).
#
# Both binaries are `pm-benchmark` builds (one per commit, each built once
# into its own target directory: `cargo build --release --offline
# --manifest-path benchmark/Cargo.toml`). Runs N pairs (default 10) of
# untraced runs of BENCHMARK.json's `run_seconds`, alternating which side
# goes first, one at a time. Then, per end-to-end metric: both medians,
# both interquartile ranges, in how many pairs the change read better
# (ties count for neither), and whether the medians differ by more than
# the parent's interquartile range; and the `failed` totals of both sides.
# Every run made is printed as it finishes. Run nothing else meanwhile.
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,20p' "$0" >&2; exit 2; }
parent=$1 change=$2 workloads=$3
shift 3
pairs=10 seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
cd "$(dirname "$0")/.."
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json
print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

lines=$(mktemp)
trap 'rm -f "$lines"' EXIT
for workload in ${workloads//,/ }; do
    : >"$lines"
    for pair in $(seq "$pairs"); do
        if [ $((pair % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            bin=$parent; [ "$side" = change ] && bin=$change
            result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 || true)
            echo "$workload pair $pair $side $result" >&2
            echo "$pair $side $result" >>"$lines"
        done
    done

    PM_LINES="$lines" PM_WORKLOAD="$workload" PM_SEED="$seed" python3 - <<'PY'
import json, os, statistics

spec = json.load(open("BENCHMARK.json"))
runs = {"parent": [], "change": []}
for line in open(os.environ["PM_LINES"]):
    _, side, result = line.split(" ", 2)
    runs[side].append(json.loads(result))

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

n = len(runs["parent"])
print(f"{os.environ['PM_WORKLOAD']}, seed {os.environ['PM_SEED']}, {n} pairs, untraced, "
      f"{spec['run_seconds']} s each")
print(f"{'metric':<12} {'parent median':>14} {'IQR':>10} {'change median':>14} {'IQR':>10} "
      f"{'change':>8} {'wins':>6}  gap > parent IQR")
for m in spec["end_to_end"]:
    p, c = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in ("parent", "change"))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    lower = m["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    gain = (pm - cm) if lower else (cm - pm)
    print(f"{m['name']:<12} {pm:>14.4f} {p3 - p1:>10.4f} {cm:>14.4f} {c3 - c1:>10.4f} "
          f"{(cm - pm) / pm:>+8.1%} {wins:>3}/{n:<2}  {'yes' if gain > p3 - p1 else 'no'}")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"{side}: failed {failed} of {attempted} attempted, {wrong} incorrect run(s)")
PY
done
