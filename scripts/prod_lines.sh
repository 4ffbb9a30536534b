#!/usr/bin/env bash
# Production lines added and removed between a base revision and the
# working tree.
#
# Counts the `.rs` files under `crates/*/src` and `src/`, each cut at its
# `#[cfg(test)]` module (the first `#[cfg(test)]` line followed by a `mod`
# line), so unit tests, integration tests, benches and examples do not
# count.  Prints one line per changed file and a total.
#
# Usage: scripts/prod_lines.sh <base-rev>
set -euo pipefail

base=${1:?usage: scripts/prod_lines.sh <base-rev>}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "prod_lines: unknown revision $base" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The production part of the Rust source on stdin.
prod() {
    awk '
        held != "" { if ($0 ~ /^mod /) exit; print held; held = "" }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        { print }
    '
}

prod_re='^(crates/[^/]+/src|src)/.*\.rs$'
files=$( {
    git ls-tree -r --name-only "$base"
    git ls-files --cached --others --exclude-standard
} | grep -E "$prod_re" | sort -u)

added=0
removed=0
for f in $files; do
    git show "$base:$f" 2>/dev/null | prod >"$tmp/base" || true
    if [ -f "$f" ]; then prod <"$f" >"$tmp/tree"; else : >"$tmp/tree"; fi
    stat=$(git diff --no-index --numstat "$tmp/base" "$tmp/tree" || true)
    [ -n "$stat" ] || continue
    read -r a r _ <<<"$stat"
    printf '%6s %6s  %s\n' "+$a" "-$r" "$f"
    added=$((added + a))
    removed=$((removed + r))
done
printf 'added %d, removed %d, net %+d production lines\n' \
    "$added" "$removed" "$((added - removed))"
