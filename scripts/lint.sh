#!/bin/sh
# Static-analysis gate: run entangle-lint over the built-in lemma
# registry, the engine's own source (nondeterminism hazards), and a
# freshly generated pair of capture graphs. Exits non-zero on any
# error-severity finding. `make lint` runs this alone; scripts/verify.sh
# runs it as its last stage.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "-- registry + source lint"
go run ./cmd/entangle-lint \
    internal/egraph internal/core internal/lemmas \
    internal/graph internal/relation internal/lint \
    internal/fingerprint internal/vcache internal/server \
    internal/mc internal/mc/models internal/faultinject \
    internal/bench internal/cluster internal/cluster/sim \
    internal/fuzz internal/det

echo "-- graph IR lint (generated gpt tp=2 capture)"
go run ./cmd/entangle-graphgen -model gpt -tp 2 -o "$tmp/model" >/dev/null
go run ./cmd/entangle -lint "$tmp"/model-seq.json "$tmp"/model-dist.json
