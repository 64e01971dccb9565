#!/usr/bin/env bash
# The repository's one benchmark: builds `hfsbench` offline and forwards
# every argument to it.
#
#   benchmark/run.sh                       every workload, each in a fresh process
#   benchmark/run.sh --trace               ... and the traced pass (per-layer ledger)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# A relative CARGO_TARGET_DIR is relative to the repository root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
started=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# What the binary cannot know by itself, for the result file's host block.
BENCH_BUILD_S=$(awk -v a="$started" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
BENCH_RUSTC=$(rustc --version)
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_BUILD_S BENCH_RUSTC BENCH_COMMIT

# The whole run stays on one CPU, the last this shell may use (interrupts
# and whatever else the host runs tend to sit on the first). On a small
# shared host threads that wake each other across cores measure the
# scheduler: pinned, ten runs of `sweep_cold` spread 2.7% and ran no
# slower; free to move between two cores, 9.0%. Without `taskset` the run is not
# pinned, and says so.
pin=()
cpu=$(awk '/^Cpus_allowed_list:/ { n = split($2, a, /[,-]/); print a[n] }' /proc/self/status 2>/dev/null || true)
if [[ -n "$cpu" ]] && taskset -c "$cpu" true 2>/dev/null; then
  pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} "$target/release/hfsbench" "$@"
