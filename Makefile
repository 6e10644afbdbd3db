GO ?= go

.PHONY: build test bench benchmark benchmark-compare verify lint mc fuzz fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares: the entangled daemon
# and a 3-node fleet as a client sees them (~3 min). Results land in
# benchmark/out; compare two of them (files or directories) with
# `make benchmark-compare A=... B=...`. See benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# The full gate: gofmt, vet, build, tests, and the race detector over
# the concurrent packages. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

# Static analysis only: entangle-lint over the lemma registry, the
# engine source, and generated capture graphs. See scripts/lint.sh.
lint:
	sh scripts/lint.sh

# Exhaustive model check of the concurrency core at the ci scope, plus
# both planted-bug regression gates — the same three commands as
# scripts/verify.sh and the mc CI job. See cmd/entangle-mc.
mc:
	$(GO) run ./cmd/entangle-mc -scope ci
	$(GO) run ./cmd/entangle-mc -model known-bug -expect-violation
	$(GO) run ./cmd/entangle-mc -model known-bug-cluster -expect-violation

# Short fuzz pass: replay the committed regression corpus (all nine
# paper bug classes), then run one bounded randomized campaign. Exits
# non-zero on any replay failure or unsound case. See cmd/entangle-fuzz.
fuzz:
	$(GO) run ./cmd/entangle-fuzz -corpus internal/fuzz/testdata/corpus -n 25

fmt:
	gofmt -w .
