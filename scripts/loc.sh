#!/usr/bin/env bash
# Non-test lines of the workspace's crates, per crate and in total.
#
#   scripts/loc.sh [<rev>]
#
# Counted are `crates/*/src/**/*.rs` and `crates/*/build.rs`; a file's
# non-test lines are the ones above its first `#[cfg(test)]` line, at any
# indentation (all of them when it has none). With a revision, it also
# unpacks `git archive <rev>` into a temporary directory (under $TMPDIR,
# default /tmp, removed on exit) and prints old -> new for every file
# whose count differs, and the net change. Nothing tracked is written.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 1 ]]; then
    echo "usage: $0 [<rev>]" >&2
    exit 2
fi

counts() { # dir: prints "<file> <non-test lines>" per counted file
    (
        cd "$1"
        shopt -s globstar nullglob
        awk 'FNR == 1 { if (f != "") print f, n; f = FILENAME; n = 0; test = 0 }
             /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
             !test { n++ }
             END { if (f != "") print f, n }' crates/*/src/**/*.rs crates/*/build.rs
    )
}

new=$(counts . | sort)
awk '{ split($1, p, "/"); c[p[2]] += $2 } END { for (k in c) printf "%-10s %6d\n", k, c[k] }' \
    <<<"$new" | sort
awk '{ t += $2 } END { printf "%-10s %6d\n", "total", t }' <<<"$new"

[[ $# -eq 1 ]] || exit 0
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hfs-loc.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git archive "$1" | tar -x -C "$tmp"
echo
echo "$1 -> working tree:"
# A file on one side only counts 0 on the other.
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(counts "$tmp" | sort) <(echo "$new") |
    awk '$2 != $3 { printf "  %-44s %6d -> %6d  (%+d)\n", $1, $2, $3, $3 - $2 }
         { to += $2; tn += $3 }
         END { printf "  %-44s %6d -> %6d  (%+d)\n", "total", to, tn, tn - to }'
