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
# checker and the linter. scripts/verify.sh is the only list of what each stage runs;
# `make lint` and `make mc` run one stage of it.
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

# ROADMAP item 12's least-code count: non-test Go lines per package of
# the checker, the e-graph, the fleet (with its simulator), the daemon,
# the experiments and the end-to-end benchmark, then their total.
LOC_PKGS = internal/core internal/egraph internal/cluster internal/server internal/bench benchmark

loc:
	@total=0; for d in $(LOC_PKGS); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-18s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-18s %6d\n' total $$total
