#!/usr/bin/env bash
# Observability smoke check: run the observe_pipeline example end-to-end
# (synthesis -> pipelined serving -> metrics snapshot) and validate its
# three machine-readable outputs:
#
#   1. the JSON-lines span trace — every line parses as one JSON object,
#      span starts and ends balance, and the trace covers all pipeline
#      layers (synthesis, prover, IVM engine, serving);
#   2. the metrics snapshot JSON — parses, and reports every layer's
#      metric families from the one shared registry;
#   3. the Prometheus text exposition — every sample line is well-formed,
#      the gated families are present, and every histogram carries the
#      mandatory le="+Inf" bucket plus _sum/_count samples.
#
# Usage: scripts/metrics_smoke.sh [size] [updates]
# (defaults: 300 base tuples, 32 updates — seconds, not minutes)

set -euo pipefail
cd "$(dirname "$0")/.."

size="${1:-300}"
updates="${2:-32}"

if ! command -v jq >/dev/null; then
    echo "metrics_smoke: jq is required" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
spans="$tmp/spans.jsonl"
out="$tmp/out.txt"

cargo run -q --release --example observe_pipeline "$size" "$updates" "$spans" >"$out"

fail=0
check() { # check <description> <ok: 0|nonzero>
    if [ "$2" -eq 0 ]; then
        echo "metrics_smoke: ok   - $1"
    else
        echo "metrics_smoke: FAIL - $1" >&2
        fail=1
    fi
}

# --- 1. the JSON-lines span trace ------------------------------------
jq -es 'length > 0' "$spans" >/dev/null 2>&1
check "span trace is non-empty valid JSON lines" $?

starts="$(jq -s '[.[] | select(.kind == "start")] | length' "$spans")"
ends="$(jq -s '[.[] | select(.kind == "end")] | length' "$spans")"
[ "$starts" -gt 0 ] && [ "$starts" -eq "$ends" ]
check "span starts balance span ends ($starts/$ends)" $?

jq -s 'map(select(.kind == "end")) | all(.elapsed_ns >= 0)' "$spans" |
    grep -q true
check "every span end carries elapsed_ns" $?

for name in synth.run prover.goal ivm.apply serve.flush serve.publish; do
    jq -es --arg n "$name" 'any(.[]; .name == $n)' "$spans" >/dev/null 2>&1
    check "span trace covers $name" $?
done

for field in interpolations interpolants_reused; do
    jq -es --arg f "$field" \
        'any(.[]; .name == "synth.workload.assemble" and .kind == "end"
            and (.fields[$f] | type) == "number")' "$spans" >/dev/null 2>&1
    check "synth.workload.assemble records $field" $?
done

# --- 2. the metrics snapshot JSON ------------------------------------
snapshot="$(grep -m1 '^{"metrics":' "$out" || true)"
[ -n "$snapshot" ] && jq -e '.metrics | length > 0' <<<"$snapshot" >/dev/null
check "snapshot JSON parses with metrics" $?

for family in prover.goals_total synth.runs_total \
    synth.interpolations_total synth.interpolants_reused_total ivm.applies_total \
    serve.flushes_total serve.dropped_batches_total serve.queue_depth \
    serve.flush_seconds serve.visible_seconds; do
    jq -e --arg n "$family" '.metrics | any(.name == $n)' \
        <<<"$snapshot" >/dev/null 2>&1
    check "snapshot reports $family" $?
done

# --- 3. the Prometheus exposition ------------------------------------
prom="$tmp/metrics.prom"
sed -n '/^-- prometheus exposition/,$p' "$out" | sed 1d >"$prom"
[ -s "$prom" ]
check "prometheus exposition present" $?

# every non-comment line is `name{labels} value` or `name value` with a
# numeric value; every # line is a well-formed TYPE comment
awk '
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
    /^#/ { bad = 1; exit }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ { next }
    /^$/ { next }
    { bad = 1; exit }
    END { exit bad }
' "$prom"
check "every exposition line is well-formed" $?

for family in nrs_prover_goals_total nrs_synth_runs_total \
    nrs_synth_interpolations_total nrs_synth_interpolants_reused_total \
    nrs_ivm_applies_total nrs_serve_flushes_total \
    nrs_serve_dropped_batches_total nrs_serve_queue_depth \
    nrs_serve_visible_seconds; do
    grep -q "^# TYPE $family " "$prom"
    check "exposition carries $family" $?
done

# histogram invariants: each declared histogram has +Inf, _sum and _count
while read -r hist; do
    grep -qF "${hist}_bucket{le=\"+Inf\"}" "$prom" &&
        grep -q "^${hist}_sum " "$prom" &&
        grep -q "^${hist}_count " "$prom"
    check "histogram $hist has +Inf bucket, _sum and _count" $?
done < <(awk '/^# TYPE .* histogram$/ { print $3 }' "$prom")

if [ "$fail" -ne 0 ]; then
    echo "metrics_smoke: FAILED (outputs kept in $tmp)" >&2
    trap - EXIT
    exit 1
fi
echo "metrics_smoke: all checks passed"
