#!/bin/sh
# Full verification gate: formatting, vet, build, the complete test
# suite, and the race detector over the concurrent packages (the
# wavefront scheduler in core, the e-graph engine it drives, and the
# synchronized relation store). CI and `make verify` both run this.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (core, egraph, relation, lemmas, faultinject, vcache, server, cluster, bench, fuzz, mc) =="
# -timeout on core: the robustness suite's worst regression mode is a
# deadlocked worker pool, which must fail the gate instead of hanging it.
# ENTANGLE_CHECK_INVARIANTS makes every e-graph Rebuild finish with the
# full structural audit, so the race section doubles as the
# invariant-checked test mode (memo/class agreement, parent
# registration, count bookkeeping — see egraph.CheckInvariants).
ENTANGLE_CHECK_INVARIANTS=1 go test -race -timeout 120s ./internal/core/...
ENTANGLE_CHECK_INVARIANTS=1 go test -race ./internal/egraph/... ./internal/relation/... ./internal/lemmas/... ./internal/faultinject/...
go test -race ./internal/fingerprint/... ./internal/vcache/... ./internal/server/... ./internal/cluster/...
# bench drives the checker through its concurrent harnesses — including
# the planned-vs-unplanned differential at workers 1/4 that pins the
# plan/execute refactor byte-identical; mc's own large-scope exploration
# is skipped here (-short) and covered by the dedicated mc CI job.
go test -race -timeout 300s ./internal/bench/...
# fuzz composes random strategies and checks them with Workers>1; the
# race run doubles as a worker-count-independence stress.
go test -race -timeout 300s ./internal/fuzz/...
go test -race -short ./internal/mc/...

echo "== go test -fuzz (peer frame codec + /v1/peer/verdicts, 10s) =="
# Arbitrary bytes as an offered batch and as a peer's fetch reply: no
# panic, and nothing failing vcache.DecodeEntry is stored or returned.
# The minimizer is capped so the ten seconds go to new inputs.
go test -run '^$' -fuzz=FuzzPeerFrames -fuzztime=10s -fuzzminimizetime=1s ./internal/server/

echo "== entangle-mc (exhaustive model check, ci scope) =="
# Every protocol model must check clean at the ci scope, and the
# planted known-bug model must still be caught — a regression test for
# the checker's teeth, not just for the protocols.
go run ./cmd/entangle-mc -scope ci
go run ./cmd/entangle-mc -model known-bug -expect-violation >/dev/null
go run ./cmd/entangle-mc -model known-bug-cluster -expect-violation >/dev/null

echo "== entangle-lint =="
sh scripts/lint.sh

echo "verify: OK"
