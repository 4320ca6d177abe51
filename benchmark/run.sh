#!/usr/bin/env bash
# run.sh — build the servers and the harness from this tree, then run the
# benchmark. Everything it writes stays inside the checkout: binaries, Go
# caches and temp files under .bench_build/, results under benchmark/out/.
#
#   benchmark/run.sh                                  every workload, tracing off then traced
#   benchmark/run.sh -repeat 5                        five whole sets (set i uses seed+i)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one run; last stdout line is the result (the driver's form)
#   benchmark/run.sh compare A.json B.json            apply BENCHMARK.json's bounds to two run files
#
# See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f go.mod || ! -d cmd/hdcserve || ! -d cmd/hdcshard || ! -d internal ]]; then
  echo "benchmark/run.sh: $root holds no repository to benchmark (need go.mod, cmd/hdcserve, cmd/hdcshard, internal/)" >&2
  exit 1
fi

build="$root/.bench_build"
bin="$build/bin"
mkdir -p "$bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

# Rebuild when any source is newer than the harness binary (the last one
# built); the go command's own cache keeps an up-to-date rebuild cheap.
if [[ ! -x "$bin/hdcbench" ]] || [[ -n "$(find cmd internal benchmark go.mod \
    \( -name '*.go' -o -name '*.s' -o -name go.mod \) -newer "$bin/hdcbench" -print -quit)" ]]; then
  go build -o "$bin/" ./cmd/hdcserve ./cmd/hdcshard >&2
  (cd benchmark && go build -o "$bin/hdcbench" ./hdcbench) >&2
fi

for arg in "$@"; do
  case "$arg" in
    compare | --workload | --workload=* | -workload | -workload=*) exec "$bin/hdcbench" "$@" ;;
  esac
done
exec "$bin/hdcbench" all "$@"
