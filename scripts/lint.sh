#!/usr/bin/env bash
# lint.sh — the repository's static-analysis gate, shared verbatim by CI
# and local runs:
#
#   ./scripts/lint.sh
#
# Always checks gofmt (any unformatted file fails) and runs hdclint
# (the in-tree analyzer suite enforcing the hot-path contracts; see
# internal/analysis) through the `go vet -vettool` driver, so
# suppressions and findings behave identically in both modes. staticcheck and govulncheck run when present on PATH (CI
# installs pinned versions; a local machine without them gets a notice,
# not a failure).
set -euo pipefail
cd "$(dirname "$0")/.."

tools="$(mktemp -d)"
trap 'rm -rf "$tools"' EXIT

echo "==> gofmt"
# internal/analysis/testdata is skipped: its fixtures pin diagnostic
# line numbers. Hidden directories hold build caches, not sources.
unformatted="$(find . -name '*.go' -not -path './internal/analysis/testdata/*' \
  -not -path './.*' -print0 | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists unformatted files (run gofmt -w on them):"
  echo "$unformatted"
  exit 1
fi

echo "==> hdclint (go vet -vettool)"
go build -o "$tools/hdclint" ./cmd/hdclint
go vet -vettool="$tools/hdclint" ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping (CI runs it pinned)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck"
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipping (CI runs it pinned)"
fi

echo "==> lint clean"
