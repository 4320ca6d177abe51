#!/bin/sh
# load.sh — open-loop serving-latency smoke: start a local hdcserve,
# offer Poisson traffic with cmd/hdcload, and archive the latency/
# goodput report as machine-readable JSON (BENCH_load.json), so the
# serving-latency trajectory is tracked PR over PR alongside the
# compute benchmarks (scripts/bench.sh).
#
#   ./scripts/load.sh                    # → BENCH_load.json
#   ./scripts/load.sh out.json
#   RATE=5000 DURATION=10s ./scripts/load.sh
#
# The serving geometry is fixed (classes, d, seed, coalescer policy) so
# reports stay comparable across runs. The default rate is modest —
# client and server share one host here, so an aggressive rate measures
# host CPU contention, not the serving stack; raise RATE to probe the
# overload/shedding regime deliberately.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_load.json}"
rate="${RATE:-500}"
duration="${DURATION:-5s}"
# A small live-enrollment fraction rides along by default, so the
# tracked latency numbers always include epoch flips happening under
# traffic (set ENROLL_FRAC=0 for a frozen-memory run).
enroll_frac="${ENROLL_FRAC:-0.002}"

tmp="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/hdcserve" ./cmd/hdcserve
go build -o "$tmp/hdcload" ./cmd/hdcload

"$tmp/hdcserve" \
  -addr 127.0.0.1:0 \
  -backends binary \
  -embedder=false \
  -classes 128 -d 1024 -seed 1 \
  -max-batch 32 \
  2>"$tmp/serve.log" &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
  addr="$(sed -n 's/.*listening on //p' "$tmp/serve.log" | head -n 1)"
  [ -n "$addr" ] && break
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$addr" ]; then
  echo "hdcserve never reported a listening address:" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

"$tmp/hdcload" -addr "$addr" -model binary -rate "$rate" -duration "$duration" \
  -enroll-frac "$enroll_frac" -out "$out"
echo "wrote $out"
