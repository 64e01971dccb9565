#!/usr/bin/env bash
# Pre-PR gate: run this before every push.
#
#   scripts/ci.sh          # fmt + clippy + build + tier-1 tests (quick)
#   HFS_FULL=1 scripts/ci.sh   # same, but without the quick iteration cap
#
# The workspace is std-only, so everything here works with no network or
# registry access.

set -euo pipefail
cd "$(dirname "$0")/.."

# No step may rewrite a committed file or leave an unignored one behind:
# the tree must end as it began (checked last).
tree_state() { git status --porcelain; git diff HEAD | git hash-object --stdin; }
TREE_BEFORE=$(tree_state)

echo "==> knob table (README.md names exactly the HFS_* variables the crates read)"
# Allowed exceptions: HFS_ENV_FLAG_UNDER_TEST exists only inside a unit
# test, and HFS_FULL is this script's own.
IN_SRC=$({ grep -rhoE '"HFS_[A-Z_]+"' crates/*/src | tr -d '"'; echo HFS_FULL; } | sort -u)
IN_README=$({ grep -oE 'HFS_[A-Z_]+' README.md; echo HFS_ENV_FLAG_UNDER_TEST; } | sort -u)
diff <(echo "$IN_SRC") <(echo "$IN_README") \
    || { echo "crates/*/src (<) and README.md (>) disagree on the HFS_* variables"; exit 1; }

echo "==> one protocol module (no other file of hfs-mem compares a Protocol; every fault hook still in place)"
# Product code is what precedes a file's `#[cfg(test)]`. Allowed:
# protocol.rs itself and the `Protocol::Msi` default in config.rs.
for f in crates/mem/src/*.rs; do
    [ "$f" = crates/mem/src/protocol.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'Protocol::' | grep -v 'protocol: Protocol::Msi,'; then
        echo "$f names a Protocol variant outside crates/mem/src/protocol.rs"; exit 1
    fi
done
MUTATIONS=$(sed -n '/pub const ALL: \[Mutation; 13\]/,/\];/p' crates/check/src/lib.rs | grep -oE 'Mutation::[A-Za-z]+')
[ "$(wc -l <<<"$MUTATIONS")" = 13 ] || { echo "expected 13 mutations in Mutation::ALL"; exit 1; }
PRODUCT=$(for f in crates/{mem,core,cpu}/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)
for m in $MUTATIONS; do
    grep -q "$m\b" <<<"$PRODUCT" || { echo "$m is armed by no product code"; exit 1; }
done

echo "==> one design module (no other file under crates/*/src names a DesignPoint variant)"
# Product code as above. Allowed: design.rs itself and doc-comment links
# (the crate doc in core/src/lib.rs). A glob or group import would hide
# the names from this grep, so it counts as naming them.
while IFS= read -r f; do
    [ "$f" = crates/core/src/design.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'DesignPoint::(Existing|MemOpti|SyncOpti|HeavyWt|RegMapped|\*|\{)' \
        | grep -vF '[`DesignPoint::'; then
        echo "$f names a DesignPoint variant outside crates/core/src/design.rs"; exit 1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

echo "==> one codec driver (no product file writes or reads a Json tree as a codec, or calls a wrapper kept for benchmark/)"
# Product code as above. The five tree wrappers are defined in ser.rs and
# spec.rs for `benchmark/` alone; their definitions are the exception.
KEPT='job_to_json|job_from_json|outcome_to_json|outcome_from_json|sweep_to_json'
while IFS= read -r f; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE "to_tree|from_tree|TreeSink|TreeSource|TreeObj|Json::Raw|\b($KEPT)\(" \
        | grep -vE "pub fn ($KEPT)\(" | sed "s|^|$f:|" | grep .; then
        echo "product code uses the tree driver or a wrapper kept for benchmark/"; exit 1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

echo "==> one count, one place (no shadow copy of a count; a memory-system count is named only in system.rs)"
# Product code as above. The executors count through the harness's
# `Lifecycle` set, the hot cache's counts are its registry handles, and
# `MemSystem::counters` is the one place a `mem.*`/`bus.*` name is given.
while IFS= read -r f; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'EngineCounters|install_metrics|sync_gauges|HotObs' | sed "s|^|$f:|" | grep .; then
        echo "product code keeps a second copy of a count"; exit 1
    fi
    [ "$f" = crates/mem/src/system.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\bCounter::new\(' | sed "s|^|$f:|" | grep .; then
        echo "a counter is named outside crates/mem/src/system.rs"; exit 1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

echo "==> one sweep shape (every experiment batch goes through experiments::grid)"
# Product code as above. mod.rs holds `grid`, the one caller of
# `run_batch` and the one place results are regrouped by row.
for f in crates/bench/src/experiments/*.rs; do
    [ "$f" = crates/bench/src/experiments/mod.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\b(run_batch|chunks_exact)\(' | sed "s|^|$f:|" | grep .; then
        echo "an experiment submits or regroups a batch itself instead of calling experiments::grid"; exit 1
    fi
done

echo "==> one address map (only the map module and the queue layout place a window, a queue or a line)"
# Product code as above, in hfs-core and hfs-isa. Allowed: addr_map.rs,
# the layout type's file (isa's program.rs) and lower.rs's re-export line.
for f in crates/core/src/*.rs crates/isa/src/*.rs; do
    case "$f" in crates/core/src/addr_map.rs | crates/isa/src/program.rs) continue ;; esac
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'QUEUE_BASE|QUEUE_SPAN|LINE_BYTES|WORK_BASE|line_base\(' \
        | grep -vF ':pub use crate::addr_map::{ARCH_QUEUES, LINE_BYTES, QUEUE_BASE};' | sed "s|^|$f:|" | grep .; then
        echo "address arithmetic outside crates/core/src/addr_map.rs and the queue layout"; exit 1
    fi
done

echo "==> one JSON writer (only hfs_sim::json escapes a JSON string or frames a JSON object)"
# Product code as above. An escaper is a `fn escape` or a `"\\u` escape;
# framing is a string literal that opens an object (`"{\"`, `{{\"`). The
# logger and the Chrome export write through `hfs_sim::json::Writer`.
while IFS= read -r f; do
    [ "$f" = crates/sim/src/json.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'fn escape|"\\\\u|"\{\\"|\{\{\\"' | sed "s|^|$f:|" | grep .; then
        echo "product code escapes or frames JSON outside crates/sim/src/json.rs"; exit 1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

echo "==> one release profile (.cargo/config.toml sets it for the root workspace and benchmark/'s)"
# A `[profile` table in any manifest would give one workspace a profile
# of its own; results do not depend on the profile, the speed does.
if grep -nE '^[[:space:]]*\[profile' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "a Cargo.toml sets a profile: the release profile lives in .cargo/config.toml"; exit 1
fi
sed -n '/^\[profile\.release\]/,/^\[/p' .cargo/config.toml 2>/dev/null | grep -qxF 'lto = "fat"' \
    || { echo '.cargo/config.toml: [profile.release] lost `lto = "fat"`'; exit 1; }

echo "==> protocol table (EXPERIMENTS.md and tests/protocols.rs pin the same 45 cycle counts)"
# Both sides reduced to `bench n n n n n` rows: EX (MSI), SY (MSI),
# EX (MESI), EX (Dragon), SY (Dragon).
IN_DOC=$(sed -n '/^### Coherence protocols/,/^Geomean EXISTING/p' EXPERIMENTS.md \
    | awk -F'|' '$3 ~ /^ [0-9]+ $/ { print $2, $3+0, $4+0, $6+0, $8+0, $9+0 }' | tr -s ' ' | sed 's/^ //')
IN_TEST=$(sed -n '/^const FIG7_CYCLES/,/^];/p' tests/protocols.rs \
    | sed -nE 's/^ *\("([a-z0-9]+)", \[([0-9, ]+)\]\),$/\1 \2/p' | tr -d ',')
[ "$(wc -l <<<"$IN_TEST")" = 9 ] || { echo "tests/protocols.rs: expected 9 pinned rows"; exit 1; }
diff <(echo "$IN_DOC") <(echo "$IN_TEST") \
    || { echo "EXPERIMENTS.md (<) and tests/protocols.rs (>) disagree on the protocol table"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test (tier-1)"
if [ -n "${HFS_FULL:-}" ]; then
    cargo test --workspace -q
else
    HFS_QUICK=1 cargo test --workspace -q
fi

echo "==> release-speed test binaries (one cargo call, so their whole-program links share the cores)"
# Fat LTO optimises each test executable as its own program; built in
# one call they link side by side, not one after another.
cargo test --release --no-run -q -p hfs -p hfs-bench --test fastforward --test check_faults \
    --test golden_results --test protocols --test cost --test serve

echo "==> fast-forward equivalence (the run loop vs the per-cycle walk)"
cargo test --release -q --test fastforward

echo "==> machine check: fault injection, once per protocol (every seeded bug caught)"
# Each sweep arms every mutation applicable under that protocol and
# requires the fired rule to live in that protocol's invariant table —
# zero silent survivors.
cargo test --release -q --test check_faults every_seeded_mutation_is_detected_msi
cargo test --release -q --test check_faults every_seeded_mutation_is_detected_mesi
cargo test --release -q --test check_faults every_seeded_mutation_is_detected_dragon
cargo test --release -q --test check_faults disarmed_machine_is_unperturbed

echo "==> tests at release speed (timing-sensitive server tests, goldens, protocol and cost pins)"
# A dispatcher test that holds the queue with a running job must hold it
# at the simulator speed the benchmark sees, not only at debug speed.
cargo test --release -q -p hfs-harness -p hfs-serve
# The shipped build against the 24 goldens, the 45 protocol pins and the
# cost pins: the quick tier-1 pass above skips the first two.
cargo test --release -q -p hfs-bench --test golden_results
cargo test --release -q --test protocols --test cost
# `all_streams_results_while_later_jobs_still_run` needs a chunk's first
# job to run first at that speed too.
cargo test --release -q --test serve

echo "==> machine check: quick fig6 sweep under HFS_CHECK=1"
# Fresh results dir + cache off: cached entries would skip the checked
# re-simulation this gate exists to run.
HFS_CHECK=1 HFS_QUICK=1 HFS_NO_CACHE=1 HFS_LOG=warn \
    HFS_RESULTS_DIR=target/check_results \
    cargo run --release -p hfs-bench --bin fig6
if grep -q '"status": *"check_failed"' target/check_results/*.json 2>/dev/null; then
    echo "machine check reported violations in fig6 artifacts"; exit 1
fi

echo "==> protocol axis: quick MESI + Dragon fig6 artifact smoke"
# Non-default protocols suffix their artifact names, so the committed
# MSI goldens are untouched; each sweep must complete checker-clean.
for proto in mesi dragon; do
    HFS_PROTOCOL=$proto HFS_CHECK=1 HFS_QUICK=1 HFS_NO_CACHE=1 HFS_LOG=warn \
        HFS_RESULTS_DIR=target/check_results \
        cargo run --release -p hfs-bench --bin fig6
    [ -s "target/check_results/fig6__$proto.json" ] \
        || { echo "fig6 sweep under HFS_PROTOCOL=$proto wrote no suffixed artifact"; exit 1; }
    if grep -q '"status": *"check_failed"' "target/check_results/fig6__$proto.json"; then
        echo "machine check reported violations in fig6__$proto artifacts"; exit 1
    fi
done

echo "==> cache heals itself (a damaged and a misnamed blob are re-simulated, never served)"
HEAL_TMP=$(mktemp -d)
trap 'rm -rf "$HEAL_TMP"' EXIT
# Quick fig6 on the leg's own cache; job_done lines (one per job, with
# `cached`) go to <run>.log.
heal_fig6() {
    HFS_QUICK=1 HFS_CACHE_DIR="$HEAL_TMP/cache" HFS_RESULTS_DIR="$HEAL_TMP/$1" \
        HFS_LOG=info HFS_LOG_FILE="$HEAL_TMP/$1.log" target/release/fig6 >/dev/null
}
simulated() { grep -c '"event":"job_done".*"cached":false' "$HEAL_TMP/$1.log" || true; }
heal_fig6 first
mapfile -t BLOBS < <(find "$HEAL_TMP/cache" -name '*.json' | sort)
[ "${#BLOBS[@]}" -ge 3 ] && [ "$(simulated first)" = "${#BLOBS[@]}" ] \
    || { echo "a fresh cache should hold one blob per simulated fig6 job"; exit 1; }
# One byte of a body changed so that it still parses (the checksum must
# catch it), and an intact blob under another blob's name (the key in
# its header must).
cp "${BLOBS[0]}" "$HEAL_TMP/intact"
sed -i -E '2s/("iterations":[0-9]*)0/\18/' "${BLOBS[0]}"
! cmp -s "${BLOBS[0]}" "$HEAL_TMP/intact" || { echo "the blob edit changed nothing"; exit 1; }
cp "${BLOBS[1]}" "${BLOBS[2]}"
heal_fig6 second
cmp "$HEAL_TMP/first/fig6.json" "$HEAL_TMP/second/fig6.json" \
    || { echo "a damaged cache changed fig6 artifact bytes"; exit 1; }
[ "$(simulated second)" = 2 ] \
    || { echo "expected exactly the two bad blobs re-simulated, got $(simulated second)"; exit 1; }
cmp "${BLOBS[0]}" "$HEAL_TMP/intact" || { echo "the damaged blob was not rewritten"; exit 1; }
heal_fig6 third
[ "$(simulated third)" = 0 ] || { echo "a healed cache is not fully hit"; exit 1; }
cmp "$HEAL_TMP/first/fig6.json" "$HEAL_TMP/third/fig6.json"
rm -rf "$HEAL_TMP"
trap - EXIT

echo "==> key path (a cache key depends on no Debug output)"
# `Job::key_ref`, the field list it hashes and the hash itself.
if { sed -n '/pub fn key_ref/,/^    }/p' crates/harness/src/job.rs
     sed '/^#\[cfg(test)\]/,$d' crates/harness/src/spec.rs
     sed '/^#\[cfg(test)\]/,$d' crates/harness/src/key.rs
   } | grep -nE '\{:#?\?\}|Debug'; then
    echo "the key path formats or requires Debug"; exit 1
fi

echo "==> benchmark: its own tests, then sim_dense, sweep_warm and sweep_cold with every correctness check"
# The benchmark's checks (every timed run equals its warm-up run, the
# production loop equals the per-cycle walk, recorded cycle and
# instruction counts) gate every simulator change, not only the changes
# that claim a gain.
(cd benchmark && cargo test -q --offline)
BENCH_OUT=$(benchmark/run.sh --workload sim_dense --seed 1 --seconds 3 --trace 0)
echo "$BENCH_OUT"
if grep -q 'model drift' <<<"$BENCH_OUT"; then
    echo "sim_dense no longer simulates the counts recorded in benchmark/goldens.json"; exit 1
fi
# The service stack end to end over a real socket. A non-zero exit means
# an outcome differed from direct execution, the server's accounting
# identity broke, or a warm pass executed a job.
benchmark/run.sh --workload sweep_warm --seed 1 --seconds 3 --trace 0
# The cold sweep is the only step that pushes full specs through
# `submit_batch` and compares every outcome with direct execution.
COLD_OUT=$(benchmark/run.sh --workload sweep_cold --seed 1 --seconds 3 --trace 0)
echo "$COLD_OUT"
if ! tail -n1 <<<"$COLD_OUT" | grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,'; then
    echo "sweep_cold: an outcome through submit_batch differed from its reference"; exit 1
fi

echo "==> hfs-serve smoke (concurrent clients, byte-identical artifacts, dedup, drain)"
SERVE_TMP=$(mktemp -d)
SERVE_PID=
serve_cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SERVE_TMP"
}
trap serve_cleanup EXIT
SOCK="$SERVE_TMP/hfs.sock"

# Offline golden: the quick fig6 sweep through the plain engine.
HFS_QUICK=1 HFS_NO_CACHE=1 HFS_LOG=warn \
    HFS_RESULTS_DIR="$SERVE_TMP/offline" \
    target/release/fig6 >/dev/null

# Observability inertness: the same sweep with full debug logging
# (progress on, so job_done lines land in the log file) must write
# byte-identical artifacts.
HFS_QUICK=1 HFS_NO_CACHE=1 \
    HFS_RESULTS_DIR="$SERVE_TMP/offline_logged" \
    HFS_LOG=debug HFS_LOG_FILE="$SERVE_TMP/offline.log" \
    target/release/fig6 >/dev/null
cmp "$SERVE_TMP/offline/fig6.json" "$SERVE_TMP/offline_logged/fig6.json" \
    || { echo "HFS_LOG=debug changed fig6 artifact bytes"; exit 1; }
[ -s "$SERVE_TMP/offline.log" ] || { echo "HFS_LOG_FILE captured no log lines"; exit 1; }

# The same sweep as a server-submittable spec.
HFS_QUICK=1 target/release/fig6 --dump-jobs "$SERVE_TMP/fig6_jobs.json"

# Server on a private socket with a fresh cache, logging at debug to a
# file (inertness: must not perturb results).
HFS_CACHE_DIR="$SERVE_TMP/cache" \
    HFS_LOG=debug HFS_LOG_FILE="$SERVE_TMP/serve.log" \
    target/release/hfs-serve --sock "$SOCK" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "hfs-serve did not come up"; exit 1; }

# Three concurrent clients submit the identical sweep.
CLIENT_PIDS=()
for c in a b c; do
    HFS_SOCK="$SOCK" HFS_LOG=warn \
        target/release/hfs-client submit "$SERVE_TMP/fig6_jobs.json" \
        --out "$SERVE_TMP/client_$c" >/dev/null &
    CLIENT_PIDS+=($!)
done

# Mid-load metrics scrape: the exposition must already be well-formed
# (every line a comment or `name value`) and internally consistent,
# even while flights are still queued and running.
MID_METRICS=$(HFS_SOCK="$SOCK" target/release/hfs-client metrics)
if command -v python3 >/dev/null 2>&1; then
    python3 - <<EOF
text = '''$MID_METRICS'''
vals = {}
for line in text.strip().splitlines():
    assert line, "blank line in exposition"
    if line.startswith("#"):
        parts = line.split()
        assert parts[1] == "TYPE" and parts[3] in ("counter", "gauge", "summary"), line
        continue
    name, value = line.rsplit(" ", 1)
    vals[name] = float(value)
mid = vals.get("hfs_jobs_submitted_total", 0)
done = vals["hfs_jobs_deduped_total"] + vals["hfs_jobs_executed_total"] \
    + vals["hfs_jobs_cache_hits_total"]
assert mid >= done, f"submitted {mid} < resolved {done} mid-load"
assert vals["hfs_queue_depth"] >= 0 and vals["hfs_jobs_in_flight"] >= 0, vals
assert vals["hfs_open_connections"] >= 1, "scraping connection is open"
EOF
fi

for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done

# Server-side artifacts must be byte-identical to the offline run.
for c in a b c; do
    cmp "$SERVE_TMP/offline/fig6.json" "$SERVE_TMP/client_$c/fig6.json" \
        || { echo "client $c artifact differs from offline fig6"; exit 1; }
done

# Single-flight + shared cache: the server must have executed at most
# one simulation per unique job despite three full submissions, and the
# stats frame must agree with the Prometheus exposition (one registry).
STATS=$(HFS_SOCK="$SOCK" target/release/hfs-client stats)
METRICS=$(HFS_SOCK="$SOCK" target/release/hfs-client metrics)
echo "$STATS"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<EOF
import json
s = json.loads('''$STATS''')
# Three identical sweeps of J jobs: one execution per unique key.
J = len(json.load(open("$SERVE_TMP/fig6_jobs.json"))["jobs"])
assert s["submitted"] == 3 * J, f"expected 3 sweeps of {J}: {s}"
assert s["executed"] == J, f"expected one execution per unique key: {s}"
assert s["submitted"] == s["deduped"] + s["executed"] + s["cache_hits"], \
    f"delivery partition: {s}"
assert s["delivered"] == s["submitted"], f"every job delivered: {s}"

vals = {}
for line in '''$METRICS'''.strip().splitlines():
    if line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    vals[name] = int(float(value))
assert vals["hfs_jobs_submitted_total"] == s["submitted"], (vals, s)
assert vals["hfs_jobs_executed_total"] == s["executed"], (vals, s)
assert vals["hfs_jobs_cache_hits_total"] == s["cache_hits"], (vals, s)
assert vals["hfs_jobs_deduped_total"] == s["deduped"], (vals, s)
assert vals["hfs_job_queue_wait_ms_count"] == s["executed"], \
    f"queue-wait observed once per executed job: {vals}"
assert vals["hfs_job_exec_wall_ms_count"] == s["executed"], \
    f"exec-wall observed once per executed job: {vals}"
assert vals["hfs_queue_depth"] == 0 and vals["hfs_jobs_in_flight"] == 0, vals
EOF
else
    echo "$STATS" | grep -q '"deduped": 0' && { echo "no dedup observed"; exit 1; }
    echo "$METRICS" | grep -q '^hfs_jobs_submitted_total ' \
        || { echo "metrics exposition missing counters"; exit 1; }
fi

# Clean shutdown: drain acknowledged, server exits zero, and its log is
# structured: every line valid JSON with the expected fields.
HFS_SOCK="$SOCK" target/release/hfs-client shutdown >/dev/null
wait "$SERVE_PID" || { echo "hfs-serve exited non-zero"; exit 1; }
[ ! -S "$SOCK" ] || { echo "socket not unlinked after drain"; exit 1; }
SERVE_PID=
[ -s "$SERVE_TMP/serve.log" ] || { echo "server wrote no log lines"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SERVE_TMP/serve.log" <<'EOF'
import json, sys
seqs = []
events = set()
for line in open(sys.argv[1]):
    rec = json.loads(line)
    assert {"seq", "ts_ms", "level", "component", "event"} <= rec.keys(), rec
    seqs.append(rec["seq"])
    events.add(rec["event"])
assert seqs == sorted(seqs) and len(seqs) == len(set(seqs)), "seq not strictly increasing"
assert {"listening", "connection_accepted", "drained"} <= events, events
EOF
fi

echo "==> hfs-serve answers specs sized past its bounds with sim_error and keeps serving"
# A 2^32-step body and a 2^40-byte L2, to a server under a 3 GB
# address-space cap: one that tried to allocate either would abort at
# once instead of exhausting the host.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SERVE_TMP/fig6_jobs.json" "$SERVE_TMP/oversized.json" <<'EOF'
import copy, json, sys
base = json.load(open(sys.argv[1]))["jobs"][0]
body, l2 = copy.deepcopy(base), copy.deepcopy(base)
body["label"], l2["label"] = "oversized/body", "oversized/l2"
body["pair"]["producer"]["steps"].insert(0, {"op": "alu", "n": 2**32 - 1})
l2["cfg"]["mem"]["l2"]["bytes"] = 2**40
json.dump({"experiment": "oversized", "jobs": [body, l2]}, open(sys.argv[2], "w"))
EOF
    SOCK="$SERVE_TMP/capped.sock"
    (
        ulimit -v 3000000
        HFS_CACHE_DIR="$SERVE_TMP/capped_cache" HFS_LOG=warn \
            exec target/release/hfs-serve --sock "$SOCK"
    ) &
    SERVE_PID=$!
    for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
    [ -S "$SOCK" ] || { echo "capped hfs-serve did not come up"; exit 1; }
    # The client exits non-zero because the jobs fail; the artifact says how.
    HFS_SOCK="$SOCK" HFS_LOG=warn target/release/hfs-client submit \
        "$SERVE_TMP/oversized.json" --out "$SERVE_TMP/capped" >/dev/null 2>&1 || true
    HFS_SOCK="$SOCK" target/release/hfs-client ping >/dev/null \
        || { echo "an oversized spec took hfs-serve down"; exit 1; }
    STATS=$(HFS_SOCK="$SOCK" target/release/hfs-client stats)
    python3 - "$SERVE_TMP/capped/oversized.json" "$STATS" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["jobs"]
assert [r["outcome"]["status"] for r in rows] == ["sim_error", "sim_error"], rows
s = json.loads(sys.argv[2])
assert s["submitted"] == s["deduped"] + s["executed"] + s["cache_hits"] == 2, s
EOF
    HFS_SOCK="$SOCK" target/release/hfs-client shutdown >/dev/null
    wait "$SERVE_PID" || { echo "capped hfs-serve exited non-zero"; exit 1; }
    SERVE_PID=
fi

echo "==> clean tree (no step rewrote a committed file or left an unignored one)"
if [ "$(tree_state)" != "$TREE_BEFORE" ]; then
    git status --porcelain
    echo "a ci step changed the working tree"; exit 1
fi

echo "==> ci OK"
