#!/bin/sh
# The verification gate, stage by stage. This file is the only list of
# what each stage runs: `make verify` runs every stage, `make lint`,
# `make mc` and `make loc` one each, and CI's other jobs run only what no stage here does.
#
#   sh scripts/verify.sh            # all stages, in the order below
#   sh scripts/verify.sh mc lint    # the named stages
set -eu

stages="fmt vet test race fuzz mc lint loc"

cd "$(dirname "$0")/.."

# timed CMD...: run CMD, then print its wall time and the command, so
# each race package's headroom under its -timeout shows in every log.
timed() {
    t0=$(date +%s)
    "$@"
    echo "-- $(($(date +%s) - t0)) s: $*"
}

stage_fmt() {
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: files need formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

stage_vet() {
    go vet ./...
}

stage_test() {
    go build ./...
    go test ./...
}

# The race detector over the concurrent packages (the wavefront
# scheduler in core, the e-graph engine it drives, the synchronized
# relation store, the caches, the daemon, the fleet).
stage_race() {
    # -timeout on core and cluster: the robustness suite's worst regression
    # mode is a deadlocked worker pool, the fleet's a wedged forwarder or
    # Flush; either must fail the gate in minutes instead of hanging it.
    # ENTANGLE_CHECK_INVARIANTS makes every e-graph Rebuild finish with the
    # full structural audit, so the race section doubles as the
    # invariant-checked test mode (memo/class agreement, parent
    # registration, count bookkeeping — see egraph.CheckInvariants). It
    # also makes Saturate execute every match the indexed matcher's
    # footprint gates withheld and panic unless it was a no-op — over
    # core's goldens, the lemma suites, and below the whole zoo (bench)
    # and the fuzz corpus. And it makes every Release assert that the
    # graph it resets is observably empty, and AddNode/Lookup refuse a
    # node copied out of an earlier graph life: egraph's recycled == fresh
    # differential (TestRecycledMatchesFresh*: the zoo, the fuzz corpus,
    # the golden models, once on a free list stocked with graphs that last
    # served the heaviest zoo operator, once with recycling off) and its
    # New/Release hammer run here, audited and raced.
    # core runs the prefetch-vs-inline-probe differential at workers 1/4
    # (TestPlanUnplannedByteIdentical), byte-identical cold and warm.
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race -timeout 120s ./internal/core/...
    # egraph runs the naive-vs-indexed matcher differential over the zoo.
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race -timeout 300s ./internal/egraph/...
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race ./internal/relation/... ./internal/lemmas/... ./internal/faultinject/...
    timed go test -race ./internal/fingerprint/... ./internal/vcache/...
    # The daemon hands core the G_d digest its table holds; audited, core
    # derives every one it is handed again and panics on a disagreement.
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race ./internal/server/...
    timed go test -race -timeout 120s ./internal/cluster/...
    # bench drives the checker through its concurrent harnesses and its
    # corpus differentials (workers 1/4, recycled graphs, cold/warm/no
    # cache: TestSaturationDifferential, TestPlannedPathDifferential); mc's own
    # large-scope exploration is skipped here (-short) and runs raced in the
    # dedicated mc CI job.
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race -timeout 300s ./internal/bench/...
    # fuzz composes random strategies and checks them with Workers>1; the
    # race run doubles as a worker-count-independence stress.
    timed env ENTANGLE_CHECK_INVARIANTS=1 go test -race -timeout 300s ./internal/fuzz/...
    timed go test -race -short ./internal/mc/...
}

# Ten seconds of arbitrary bytes into each parser that reads what a
# client or a peer sends. The peer wire, as an offered batch and as a
# fetch reply on both ends: no panic, and nothing failing
# vcache.DecodeEntry is stored or returned. The graph decoder and the
# request envelope against their encoding/json references: same
# verdict, same graph, same fields. The HLO reader: no panic, and what
# it accepts survives Print -> Parse. A cached verdict's terms: no panic,
# and what DecodeTerm accepts CanonicalTerm spells back byte for byte. A
# cached verdict's bytes, as a file and as a payload under a valid
# header: no panic, and what DecodeEntry accepts the entry constructors
# build back byte for byte. Any bytes as a disk segment: no panic, the
# scan indexes only whole frames, and a Get returns only what
# DecodeEntry accepts. The minimizer is capped so the ten seconds
# go to new inputs; go test takes one -fuzz target per run. The
# NAME:package list is go test -list's (each package's names come
# before its "ok" line), so a new Fuzz target cannot be missed.
stage_fuzz() {
    list=$(go test -list '^Fuzz' ./internal/...)
    targets=$(printf '%s\n' "$list" | awk '
        /^Fuzz/ { names = names " " $1; next }
        /^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print a[i] ":" $2; names = "" }')
    [ -n "$targets" ] || { echo "stage_fuzz: no Fuzz targets found" >&2; exit 1; }
    # $targets is left unquoted on purpose: one NAME:package per word.
    for target in $targets; do
        go test -run '^$' -fuzz="^${target%%:*}\$" -fuzztime=10s -fuzzminimizetime=1s "${target#*:}"
    done
}

# Every protocol model must check clean at the ci scope, and both
# planted-bug models (scheduler slot leak, cluster split-brain) must
# still be caught — a regression test for the checker's teeth, not just
# for the protocols.
stage_mc() {
    go run ./cmd/entangle-mc -scope ci
    go run ./cmd/entangle-mc -model known-bug -expect-violation >/dev/null
    go run ./cmd/entangle-mc -model known-bug-cluster -expect-violation >/dev/null
}

# entangle-lint over the built-in lemma registry, the source of every
# package under internal/ and cmd/ (nondeterminism hazards; the list is
# go list's, so a new package cannot be missed), and a freshly
# generated pair of capture graphs in each graph format. Fails on any
# error-severity finding.
stage_lint() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mod=$(go list -m)
    pkgs=$(go list ./internal/... ./cmd/... | sed "s|^$mod/||")
    go run ./cmd/entangle-graphgen -model gpt -tp 2 -o "$tmp/model" >/dev/null
    go run ./cmd/entangle-graphgen -model gpt -tp 2 -format hlo -o "$tmp/model" >/dev/null
    # $pkgs is left unquoted on purpose: one directory per word.
    go run ./cmd/entangle-lint $pkgs \
        "$tmp"/model-seq.json "$tmp"/model-dist.json \
        "$tmp"/model-seq.hlo "$tmp"/model-dist.hlo
}

# ROADMAP item 12's least-code count: non-test Go lines per package of
# the checker, the e-graph, the fleet (with its simulator), the daemon,
# the experiments and the end-to-end benchmark, then their total. It
# only prints, so every log shows the count.
stage_loc() {
    total=0
    for d in internal/core internal/egraph internal/cluster internal/server internal/bench benchmark; do
        n=$(find "$d" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
        printf '%-18s %6d\n' "$d" "$n"
        total=$((total + n))
    done
    printf '%-18s %6d\n' total "$total"
}

[ $# -gt 0 ] || set -- $stages
for stage in "$@"; do
    case " $stages " in
    *" $stage "*)
        echo "== $stage =="
        began=$(date +%s)
        "stage_$stage"
        echo "== $stage: $(($(date +%s) - began)) s =="
        ;;
    *)
        echo "verify.sh: unknown stage '$stage' (stages: $stages)" >&2
        exit 2
        ;;
    esac
done
echo "verify: OK"
