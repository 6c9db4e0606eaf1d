#!/usr/bin/env bash
# Repeatability check: run every workload <n> times, each time with another
# seed, and print per metric x workload the median, the quartiles and the
# spread (interquartile distance as a share of the median) against the
# bound BENCHMARK.json fixes.
#
#   benchmark/repeat.sh [n=10] [first_seed=1]
#
# Run from the repository root. Uses `run_seconds` from BENCHMARK.json; set
# SECONDS_OVERRIDE to try another run length.
set -euo pipefail

n="${1:-10}"
first_seed="${2:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pir-benchmark"
seconds="${SECONDS_OVERRIDE:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
mkdir -p benchmark/out
results="benchmark/out/repeat.tsv" # workload, frontier tile, result line
: >"$results"

for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  for ((i = 0; i < n; i++)); do
    seed=$((first_seed + i))
    echo "run $((i + 1))/$n of $workload (seed $seed)" >&2
    output="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
    tile="$(grep -o 'frontier tile [0-9a-z]*' <<<"$output" | head -n 1 | cut -d' ' -f3)"
    printf '%s\t%s\t%s\n' "$workload" "$tile" "$(tail -n 1 <<<"$output")" >>"$results"
  done
done

python3 - "$results" <<'PY'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
values = {}
for row in open(sys.argv[1]):
    workload, _tile, line = row.rstrip("\n").split("\t", 2)
    result = json.loads(line)
    assert result["correct"] and result["failed"] == 0, (workload, result)
    for name, metric in result["metrics"].items():
        values.setdefault((workload, name), []).append(metric["value"])

print(f"{'workload':<26} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
for (workload, name), runs in values.items():
    median = statistics.median(runs)
    if len(runs) >= 2:
        q1, _, q3 = statistics.quantiles(runs, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    bound = bounds.get(name)
    flag = ""
    if bound is not None and name != "setup_s":
        flag = " OVER" if spread > bound else (" wide" if spread > bound / 3 else "")
    print(f"{workload:<26} {name:<26} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
print(f"raw results: {sys.argv[1]}")
PY
