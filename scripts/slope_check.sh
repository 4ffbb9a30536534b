#!/usr/bin/env bash
# Scaling gate: the benches that are flat in |S| by design — a bare
# maintained update (ivm_single), a served update round (serve_update) and
# a snapshot read (snapshot_read) — must stay flat.  For each, fit the
# log-log slope of min_ns against the base size over every size the summary
# holds (least squares), and fail when it exceeds 0.3.  A point gate at
# one size cannot see an O(|S|) cost; a slope can: linear growth reads
# about 1.0, a per-update copy of the served sets about 0.8-0.9 between
# 10^3 and 10^4, a flat path about 0.
#
# Usage:
#   scripts/slope_check.sh <summary.json>
#
# The summary must hold each bench at two or more sizes
# (`scripts/bench.sh --fast` measures them at 10^3 and 10^4); summaries
# are the one-bench-per-line JSON emitted by scripts/bench.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

summary="${1:?usage: scripts/slope_check.sh <summary.json>}"
limit=0.3

if [ ! -r "$summary" ]; then
    echo "slope_check: summary file '$summary' does not exist or is unreadable" >&2
    exit 2
fi

status=0
for bench in ivm_single serve_update snapshot_read; do
    # "<size> <min_ns>" per measured size
    points="$(grep -F "\"bench\":\"${bench}/" "$summary" |
        sed 's/.*"bench":"[^"\/]*\/\([0-9]*\)".*"min_ns":\([0-9.eE+-]*\).*/\1 \2/' || true)"
    if [ "$(printf '%s\n' "$points" | grep -c .)" -lt 2 ]; then
        echo "slope_check: MISSING - ${bench} is not measured at two or more sizes in $summary" >&2
        status=2
        continue
    fi
    printf '%s\n' "$points" | awk -v b="$bench" -v k="$limit" '
        { x = log($1); y = log($2); sx += x; sy += y; sxx += x * x; sxy += x * y; n++
          pts = pts sprintf(" %s:%.0fns", $1, $2) }
        END {
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
            printf "slope_check: %s log-log slope %.2f over%s, limit %.2f\n", b, slope, pts, k;
            if (slope > k) {
                printf "slope_check: REGRESSION - %s grows as |S|^%.2f\n", b, slope > "/dev/stderr";
                exit 1;
            }
        }' || status=1
done
exit "$status"
