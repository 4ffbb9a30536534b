#!/usr/bin/env bash
# Production lines added and removed between a base revision and the
# working tree.
#
# Counts the `.rs` files under `crates/*/src` and `src/`, each cut at its
# `#[cfg(test)]` module (the first `#[cfg(test)]` line followed by an
# inline `mod .. {` line), so unit tests, integration tests, benches and
# examples do not count.  A module file declared `#[cfg(test)] mod name;`
# in its parent (or below such a module) is test code as a whole.  Prints
# one line per changed file and a total.
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

# The file $2 at the base revision ($1 = base) or in the working tree.
show() {
    if [ "$1" = base ]; then git show "$base:$2" 2>/dev/null; else cat "$2" 2>/dev/null; fi
}

# Is the module file $2 (on side $1) declared only under `#[cfg(test)]`,
# by its parent module or by an ancestor?
test_only() {
    local side=$1 f=$2 dir name parent decl
    case $f in
        */lib.rs | */main.rs) return 1 ;;
        */mod.rs) dir=${f%/*}; name=${dir##*/}; dir=${dir%/*} ;;
        *) dir=${f%/*}; name=${f##*/}; name=${name%.rs} ;;
    esac
    for parent in "$dir/lib.rs" "$dir/main.rs" "$dir/mod.rs" "$dir.rs"; do
        decl=$(show "$side" "$parent" | awk -v name="$name" '
            $0 ~ "^[[:space:]]*(pub(\\([^)]*\\))? )?mod " name ";" {
                print (prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ ? "test" : "prod")
                exit
            }
            { prev = $0 }
        ' || true)
        case $decl in
            test) return 0 ;;
            prod) test_only "$side" "$parent"; return ;;
        esac
    done
    return 1
}

# The production part of the Rust source on stdin: a `#[cfg(test)]` module
# declaration is dropped, an inline `#[cfg(test)]` module ends the file.
prod() {
    awk '
        held != "" {
            held_line = held; held = ""
            if ($0 ~ /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/) next
            if ($0 ~ /^mod /) exit
            print held_line
        }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        { print }
    '
}

# The production part of file $2 on side $1.
prod_of() {
    if test_only "$1" "$2"; then return; fi
    show "$1" "$2" | prod || true
}

prod_re='^(crates/[^/]+/src|src)/.*\.rs$'
files=$( {
    git ls-tree -r --name-only "$base"
    git ls-files --cached --others --exclude-standard
} | grep -E "$prod_re" | sort -u)

added=0
removed=0
for f in $files; do
    prod_of base "$f" >"$tmp/base"
    prod_of tree "$f" >"$tmp/tree"
    stat=$(git diff --no-index --numstat "$tmp/base" "$tmp/tree" || true)
    [ -n "$stat" ] || continue
    read -r a r _ <<<"$stat"
    printf '%6s %6s  %s\n' "+$a" "-$r" "$f"
    added=$((added + a))
    removed=$((removed + r))
done
printf 'added %d, removed %d, net %+d production lines\n' \
    "$added" "$removed" "$((added - removed))"
