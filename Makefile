GO ?= go

.PHONY: build test bench benchmark benchmark-compare verify lint mc fuzz fmt loc

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

# The full gate: gofmt, vet, build, tests, the race detector over the
# concurrent packages, ten seconds of fuzzing per wire and file format
# (verify.sh's `fuzz` stage; not the strategy fuzzer below), the model
# checker, the linter and the least-code count. scripts/verify.sh is the
# only list of what each stage runs; `make lint`, `make mc` and `make loc`
# run one stage of it.
verify:
	sh scripts/verify.sh

lint:
	sh scripts/verify.sh lint

mc:
	sh scripts/verify.sh mc

# Short fuzz pass: replay the committed regression corpus (all nine
# paper bug classes), then run one bounded randomized campaign. Exits
# non-zero on any replay failure or unsound case. See cmd/entangle-fuzz.
fuzz:
	$(GO) run ./cmd/entangle-fuzz -corpus internal/fuzz/testdata/corpus -n 25

fmt:
	gofmt -w .

# ROADMAP item 12's least-code count, per package and in total: the
# last stage of `make verify`.
loc:
	sh scripts/verify.sh loc
