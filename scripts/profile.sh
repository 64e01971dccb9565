#!/usr/bin/env bash
# Where one workload's CPU time goes, from a sampled profile.
#
#   scripts/profile.sh <sim_dense|sim_stream|point|figure> [seconds=10] [pattern...]
#
# The workload is a benchmark set, one point of it by its
# benchmark/goldens.json key (`wc/EXISTING@20000`, `fir/EXISTING/dragon@20000`),
# or an `all_figures` row. Builds `hfs-bench`'s `profile` binary with line tables (into
# target/profile, so the plain release build is left alone), runs it for
# `seconds`, and resolves every sample with `addr2line -f -i -C`, inlined
# frames included. Prints the share of samples by innermost repo file,
# then by non-inlined function (the outermost frame of the sample's
# inline stack, which is the one the compiler kept as a call), then, for
# each pattern, the share of samples with a frame containing it anywhere
# in the inline stack. Inlining moves time between innermost files (a
# statically dispatched callee lands in its caller's frame), so compare
# builds by function. A frame reads `<file>:<function>`,
# e.g. `crates/sim/src/queue.rs:pop_ready`; an inlined frame carries
# only the function's last name, so name a method by its file, as in
# `mem/src/system.rs:location`. A figure runs under
# HFS_NO_CACHE=1 with its artifacts in the temporary directory (under
# $TMPDIR, default /tmp, removed on exit). Nothing tracked is written.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <sim_dense|sim_stream|point|figure> [seconds=10] [pattern...]" >&2
    exit 2
fi
workload=$1 seconds=${2:-10}
shift
(($#)) && shift

export CARGO_TARGET_DIR=target/profile CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
cargo build --release --offline --quiet -p hfs-bench --bin profile
exe=target/profile/release/profile

tmp=$(mktemp -d "${TMPDIR:-/tmp}/hfs-profile.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
HFS_NO_CACHE=1 HFS_LOG=warn HFS_RESULTS_DIR="$tmp/results" \
    "$exe" "$workload" "$seconds" > "$tmp/samples"
sort "$tmp/samples" | uniq -c > "$tmp/counts"
awk '{ print $2 }' "$tmp/counts" | addr2line -e "$exe" -a -f -i -C > "$tmp/frames"

python3 - "$tmp/counts" "$tmp/frames" "$PWD/" "$@" <<'EOF'
import collections, sys

counts_file, frames_file, repo, patterns = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
counts = {int(a, 16): int(n) for n, a in (l.split() for l in open(counts_file))}
# addr2line -a: an address line, then (function, file:line) per inline
# frame, innermost first.
stacks, lines = {}, open(frames_file).read().splitlines()
for line in lines:
    if line.startswith("0x"):
        addr = int(line, 16)
        stacks[addr] = []
    else:
        stacks[addr].append(line)

def path(fn):
    """A demangled path without generic arguments; `<T as Trait>::f`
    reads `T::f`."""
    if fn.startswith("<"):
        depth = 0
        for i, c in enumerate(fn):
            depth += (c == "<") - (c == ">")
            if depth == 0:
                break
        fn = fn[1:i].split(" as ")[0] + fn[i + 1 :]
    out, depth = [], 0
    for c in fn:
        depth += (c == "<") - (c == ">")
        if depth == 0 and c != ">":
            out.append(c)
    return "".join(out)

total = sum(counts.values())
by_file, by_fn, by_pattern = collections.Counter(), collections.Counter(), collections.Counter()
for addr, n in counts.items():
    frames = stacks.get(addr, [])
    paths = [f.rsplit(":", 1)[0] for f in frames[1::2]]
    files = [p.removeprefix(repo) for p in paths]
    inner = next((f for f, p in zip(files, paths) if f != p), "(outside the repo)")
    by_file[inner] += n
    # The outermost frame as `Type::fn`; a bare name gets its file.
    outer = "::".join(path(frames[-2]).split("::")[-2:]) if frames else "??"
    if "::" not in outer and paths and paths[-1] != "??":
        outer = f"{paths[-1].rsplit('/', 1)[-1]}:{outer}"
    by_fn[outer] += n
    names = [f"{file}:{path(fn).rsplit('::', 1)[-1]}" for fn, file in zip(frames[0::2], files)]
    for p in patterns:
        if any(p in f for f in names):
            by_pattern[p] += n
print(f"{total} samples")
print(f"{'share':>7}  innermost repo file")
for f, n in by_file.most_common(20):
    print(f"{100 * n / total:6.1f}%  {f}")
print(f"{'share':>7}  non-inlined function")
for f, n in by_fn.most_common(20):
    print(f"{100 * n / total:6.1f}%  {f}")
if patterns:
    print(f"{'share':>7}  any frame containing")
    for p in patterns:
        print(f"{100 * by_pattern[p] / total:6.1f}%  {p}")
EOF
