# Standard developer entry points; everything is stdlib-only Go.

GO ?= go

.PHONY: all build vet lint test bench bench-check experiments experiments-quick fuzz cover clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (allocfree, epochguard, scratchescape,
# floateq, mapiter); see DESIGN.md §8 and `go run ./cmd/medcc-lint -list`.
lint:
	$(GO) run ./cmd/medcc-lint

test:
	$(GO) test ./...

# Full benchmark sweep, 5 repetitions per name, distilled into
# BENCH_8.json (see scripts/bench.sh for knobs).
bench:
	scripts/bench.sh

# Run a fresh sweep into an uncommitted candidate snapshot and fail when
# any benchmark present in both regressed against the committed
# BENCH_8.json baseline: more than 25% in ns/op (MAX_REGRESSION_PCT) or
# any allocs/op increase (MAX_ALLOC_DELTA, default 0, plus a 0.1%
# relative MAX_ALLOC_PCT headroom that only matters for concurrent
# benchmarks). Re-record the baseline with `make bench` when a change is
# intentional.
bench-check:
	scripts/bench.sh .bench.candidate.json
	scripts/bench_compare.sh BENCH_8.json .bench.candidate.json

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Short fuzz sessions over the input parsers, the incremental timing,
# the binary container, and the serving API.
fuzz:
	$(GO) test -fuzz=FuzzWorkflowJSON -fuzztime=30s ./internal/workflow/
	$(GO) test -fuzz=FuzzGraphJSON -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzIncrementalTiming -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/dax/
	$(GO) test -fuzz=FuzzDecodeCorpus -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=30s ./internal/serve/

# End-to-end smoke of the serving stack (race-built binaries).
serve-smoke:
	scripts/serve_smoke.sh

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f .bench.candidate.json
