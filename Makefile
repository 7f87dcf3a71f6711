# Standard developer entry points; everything is stdlib-only Go.

GO ?= go

.PHONY: all build vet lint test experiments experiments-quick fuzz serve-smoke cover clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (the eleven medcc-lint analyzers); see
# DESIGN.md §8 and `go run ./cmd/medcc-lint -list`.
lint:
	$(GO) run ./cmd/medcc-lint

test:
	$(GO) test ./...

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Short fuzz sessions over the input parsers, graph construction, the
# incremental timing, the binary container, the serving API, and the
# event queue.
fuzz:
	$(GO) test -fuzz=FuzzWorkflowJSON -fuzztime=30s ./internal/workflow/
	$(GO) test -fuzz=FuzzGraphJSON -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzGraphBuild -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzIncrementalTiming -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/dax/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/wfcommons/
	$(GO) test -fuzz=FuzzDecodeCorpus -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/encoding/
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzQueueLane -fuzztime=30s ./internal/sim/

# End-to-end smoke of the serving stack (race-built binaries).
serve-smoke:
	scripts/serve_smoke.sh

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
