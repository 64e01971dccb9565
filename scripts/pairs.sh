#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs=10] [seconds=20]
#
# Unpacks `git archive <parent-rev>` into a temporary directory and builds
# the benchmark there and in this working tree. Pair i then runs
# `benchmark/run.sh --workload W --seed i --seconds S --trace 0` once on
# each side, the parent first on odd i and the change first on even i, so
# neither side always gets the warmer machine. Last, for every end-to-end
# metric in BENCHMARK.json, it prints both sides' medians and quartiles
# and the number of pairs the change won, then the same once more as one
# JSON record per metric: `commit` (this tree, `-dirty` when it has
# uncommitted changes), `parent`, `workload`, `metric`, `before` and
# `after` (each `median`, `q1`, `q3`), `wins`, `pairs`, `seconds` and
# `nproc`. A failed operation on either side is reported and makes the
# script exit non-zero.
#
# Nothing tracked is written: results and the parent's build live in the
# temporary directory (under $TMPDIR, default /tmp), removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <parent-rev> <workload> [pairs=10] [seconds=20]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
# Each side builds into its own benchmark/target.
unset CARGO_TARGET_DIR

tmp=$(mktemp -d "${TMPDIR:-/tmp}/hfs-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# One build per side up front, so no timed run pays for compiling.
# (`run.sh` builds again before every run; that is then a no-op.)
for side in parent change; do
    dir=.
    [[ $side == parent ]] && dir="$tmp/parent"
    echo "==> building the $side ($dir)" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

run() { # side seed
    local dir=. out="$tmp/$1.$2"
    [[ $1 == parent ]] && dir="$tmp/parent"
    bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 > "$out.txt" ||
        echo "$1 seed $2: benchmark/run.sh exited non-zero" >&2
    tail -n 1 "$out.txt" > "$out.json"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    echo "==> pair $i/$pairs: ${order[0]} first" >&2
    run "${order[0]}" "$i"
    run "${order[1]}" "$i"
done

python3 - "$tmp" "$pairs" "$workload" BENCHMARK.json "$seconds" \
    "$(git describe --always --dirty --abbrev=7)" "$(git rev-parse --short=7 "$rev")" "$(nproc)" <<'EOF'
import json, statistics, sys

tmp, pairs, workload, manifest = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
seconds, commit, parent, nproc = float(sys.argv[5]), sys.argv[6], sys.argv[7], int(sys.argv[8])
runs = {
    side: [json.load(open(f"{tmp}/{side}.{i}.json")) for i in range(1, pairs + 1)]
    for side in ("parent", "change")
}

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

print(f"{workload}: {pairs} alternated pairs")
print(f"{'metric':<18} {'side':<7} {'median':>12} {'q1':>12} {'q3':>12}  change/parent  change won")
records = []
for m in json.load(open(manifest))["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    med = {s: statistics.median(v) for s, v in vals.items()}
    wins = sum(
        (c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"])
    )
    ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
    record = {"commit": commit, "parent": parent, "workload": workload, "metric": name}
    for s, key in (("parent", "before"), ("change", "after")):
        q1, q3 = quartiles(vals[s])
        record[key] = {"median": med[s], "q1": q1, "q3": q3}
        tail = f"  {ratio:>13.3f}  {wins:>4}/{pairs}" if s == "change" else ""
        print(f"{name:<18} {s:<7} {med[s]:>12.4g} {q1:>12.4g} {q3:>12.4g}{tail}")
    record.update(wins=wins, pairs=pairs, seconds=seconds, nproc=nproc)
    records.append(record)
for record in records:
    print(json.dumps(record, separators=(",", ":")))

bad = [
    f"{s} seed {i + 1}: {r['failed']}/{r['attempted']} failed"
    for s in runs
    for i, r in enumerate(runs[s])
    if not r["correct"]
]
for b in bad:
    print(f"NOT CORRECT: {b}")
sys.exit(1 if bad else 0)
EOF
