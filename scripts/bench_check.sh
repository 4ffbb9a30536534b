#!/usr/bin/env bash
# Bench-regression smoke check: compare a benchmark between a fresh summary
# (e.g. from `scripts/bench.sh --fast ci-bench.json`) and the checked-in
# reference summary, failing when it regresses by more than a tolerance
# factor.
#
# The comparison is **machine-calibrated**: raw nanoseconds are divided by a
# baseline benchmark measured in the same run (default:
# `recompute_from_base/100`, the naive evaluation of the same workload).  A
# slower CI runner slows both sides equally, so the calibrated ratio isolates
# genuine regressions of the optimized path (losing the hash-join/membership
# recognition would show up as a 100–1000x blow-up, far past any tolerance).
#
# Usage:
#   scripts/bench_check.sh <fresh.json> [reference.json] [bench] [factor] [calib]
#
# `bench` may be a comma-separated list; every listed benchmark must pass the
# same calibrated tolerance (the gate covers evaluation-bound, prover-bound
# and IVM benchmarks in CI).
#
# Before any comparison, every requested bench (and the calibration bench) is
# resolved against *both* summaries; if anything is missing, the check fails
# with one line per missing (bench, file) pair instead of a bare parse error.
#
# Defaults: reference = BENCH_pr10.json, bench = from_views/100, factor = 2.0,
# calib = recompute_from_base/100.  Summaries are the one-bench-per-line JSON
# emitted by scripts/bench.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

fresh="${1:?usage: scripts/bench_check.sh <fresh.json> [reference.json] [bench[,bench…]] [factor] [calib]}"
reference="${2:-BENCH_pr10.json}"
benches="${3:-from_views/100}"
factor="${4:-2.0}"
calib="${5:-recompute_from_base/100}"

for file in "$fresh" "$reference"; do
    if [ ! -r "$file" ]; then
        echo "bench_check: summary file '$file' does not exist or is unreadable" >&2
        exit 2
    fi
done

min_of() {
    # Extract min_ns for the named bench from a bench.sh summary.  Each bench
    # is a single line, so line-oriented tools are enough.  Minima are far
    # more stable than means for the ~100 us benches being ratioed here:
    # scheduler noise inflates individual samples but rarely deflates them.
    # The check does not read median_ns: the reference BENCH_pr10.json
    # predates it and records only mean_ns, min_ns and max_ns.
    local file="$1" name="$2"
    grep -F "\"bench\":\"${name}\"" "$file" |
        sed 's/.*"min_ns":\([0-9.eE+-]*\).*/\1/' |
        head -n1
}

# Resolve every (bench, file) pair up front so a missing benchmark fails the
# check with a complete, per-bench report rather than a parse error on the
# first gap.
missing=0
for bench in ${benches//,/ } "$calib"; do
    for file in "$fresh" "$reference"; do
        if [ -z "$(min_of "$file" "$bench")" ]; then
            echo "bench_check: MISSING - bench '$bench' not found in $file" >&2
            missing=1
        fi
    done
done
if [ "$missing" -ne 0 ]; then
    echo "bench_check: aborting - the summaries above do not cover the requested benches" >&2
    exit 2
fi

fresh_calib="$(min_of "$fresh" "$calib")"
ref_calib="$(min_of "$reference" "$calib")"

status=0
for bench in ${benches//,/ }; do
    fresh_mean="$(min_of "$fresh" "$bench")"
    ref_mean="$(min_of "$reference" "$bench")"

    awk -v fm="$fresh_mean" -v fc="$fresh_calib" \
        -v rm="$ref_mean" -v rc="$ref_calib" \
        -v k="$factor" -v b="$bench" -v c="$calib" 'BEGIN {
        fresh_rel = fm / fc;
        ref_rel = rm / rc;
        ratio = fresh_rel / ref_rel;
        printf "bench_check: %s = %.0f ns (%.2fx of %s) vs reference %.0f ns (%.2fx); calibrated ratio %.2fx, limit %.1fx\n",
            b, fm, fresh_rel, c, rm, ref_rel, ratio, k;
        if (ratio > k) {
            printf "bench_check: REGRESSION - %s is %.2fx slower (machine-calibrated) than the checked-in summary\n",
                b, ratio > "/dev/stderr";
            exit 1;
        }
    }' || status=1
done
exit "$status"
