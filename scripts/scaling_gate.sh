#!/usr/bin/env bash
# Gate the de-serialized commit hot path: with TRADE1 strong scaling (a
# fixed total transaction count split across threads), the N-thread min
# should sit close to the 1-thread min, where N is the largest thread count
# the artifact holds for the backend (the bench drops counts above the
# host's cores, so N is 4 on a 4-core runner and 2 on a 2-core one).
# Typical post-fix ratio is ~1.1-1.8x; the pre-fix serialized path sat at
# 3-8x.  The 2.5x threshold leaves headroom for scheduler noise without
# letting a re-serialized Mutex-on-the-hot-path regression through.
#
# Usage: scripts/scaling_gate.sh [BENCH_JSON] [MAX_RATIO]
# Regenerate the input locally with:
#   PCL_BENCH_TINY=1 PCL_BENCH_SAMPLES=8 PCL_BENCH_ONLY=trade1-disjoint-scaling \
#     PCL_BENCH_JSON=$PWD/BENCH_scaling.json cargo bench -p bench --bench tradeoffs
set -euo pipefail

json="${1:-BENCH_scaling.json}"
max_ratio="${2:-2.5}"

if [ ! -f "$json" ]; then
  echo "error: $json not found (see usage header for how to generate it)" >&2
  exit 2
fi

status=0
for backend in tl2-blocking pram-local; do
  prefix="trade1-disjoint-scaling/$backend/"
  one=$(jq -r --arg n "${prefix}1" '.benches[] | select(.name==$n) | .min_ns' "$json")
  n=$(jq -r --arg p "$prefix" \
    '[.benches[] | select(.name | startswith($p)) | .name | ltrimstr($p) | tonumber] | max' "$json")
  if [ -z "$one" ] || [ "$one" = "null" ] || [ "$n" = "null" ]; then
    echo "::error::$backend: trade1-disjoint-scaling entries missing from $json"
    status=1
    continue
  fi
  if [ "$n" -le 1 ]; then
    echo "$backend: only the 1-thread entry is present (a single-core host); nothing to gate"
    continue
  fi
  top=$(jq -r --arg n "$prefix$n" '.benches[] | select(.name==$n) | .min_ns' "$json")
  echo "$backend: 1-thread $one ns, $n-thread $top ns (N = $n, the largest count present)"
  awk -v one="$one" -v top="$top" -v n="$n" -v b="$backend" -v max="$max_ratio" \
    'BEGIN { if (top > max * one) { printf "::error::%s %d-thread min %d ns exceeds %sx the 1-thread min %d ns\n", b, n, top, max, one; exit 1 } }' \
    || status=1
done
exit $status
