#!/usr/bin/env bash
# Run the Criterion bench suite and distill the BENCH_JSON lines every
# benchmark emits into one JSON summary — the seed for the repository's
# BENCH_*.json trajectory.
#
# Usage:
#   scripts/bench.sh                 # full run, writes bench-results/BENCH_<date>.json
#   scripts/bench.sh out.json        # full run, explicit output path
#   scripts/bench.sh --fast [out]    # smoke run (seconds, noisy numbers)
#   NRS_BENCH_FAST=1 scripts/bench.sh   # same smoke run, via the env knob
#
# Each element of the "benches" array is one benchmark:
#   {"group":"E4_proof_search","bench":"subset_chain/2",
#    "mean_ns":…,"median_ns":…,"min_ns":…,"max_ns":…,"samples":…}
# Pair runs on median_ns: one disturbed sample moves mean_ns several-fold.

set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
-h | --help)
    sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
    exit 0
    ;;
--fast)
    export NRS_BENCH_FAST=1
    shift
    ;;
esac

case "${1:-}" in
-*)
    echo "unknown option: $1 (try --help)" >&2
    exit 2
    ;;
esac

out="${1:-bench-results/BENCH_$(date -u +%Y%m%d).json}"
mkdir -p -- "$(dirname -- "$out")"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running cargo bench (logs: $raw)…" >&2
# The root package is the umbrella crate; the Criterion benches live in the
# nrs-bench package, so target it explicitly.  The `|| true` covers only
# grep's no-match exit; a cargo failure still aborts via pipefail.
cargo bench -p nrs-bench 2>&1 | tee "$raw" | { grep -v '^BENCH_JSON ' || true; }

{
    printf '{\n'
    printf '  "schema": "nrs-bench-summary/v1",\n'
    printf '  "generated_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "fast_mode": %s,\n' "$(case "${NRS_BENCH_FAST:-0}" in '' | 0) echo false ;; *) echo true ;; esac)"
    printf '  "rustc": "%s",\n' "$(rustc --version)"
    printf '  "benches": [\n'
    (grep '^BENCH_JSON ' "$raw" || true) | sed 's/^BENCH_JSON //' | sed '$!s/$/,/' | sed 's/^/    /'
    printf '  ]\n'
    printf '}\n'
} > "$out"

count="$(grep -c '^BENCH_JSON ' "$raw" || true)"
echo "wrote $out ($count benchmarks)" >&2
