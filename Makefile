# Build and verification entry points. `make ci` runs the same checks as
# .github/workflows/ci.yml, which gives each `ci` prerequisite its own step;
# every target works offline with only the Go toolchain installed.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: all build test race lint fmt vet ppmlint lint-concurrency lint-codegen gates gates-update grid-smoke serve-smoke session-smoke check-quick check check-ittage fuzz-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints offending files; fail loudly instead of silently succeeding.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's own analyzers: ctxflow, determinism, falseshare,
# golifetime, hotpath, idxmask, ifaceassert, ifacecall, lockorder, mustclose,
# panicdoc, pow2mask.
ppmlint:
	$(GO) run ./cmd/ppmlint ./...

# Just the concurrency-discipline analyzers — goroutine lifetimes, context
# flow, lock ordering, unchecked cleanup errors — for a fast local pass.
# `make ppmlint` (via `make lint`) runs them too.
lint-concurrency:
	$(GO) run ./cmd/ppmlint -run golifetime,ctxflow,lockorder,mustclose ./...

# Just the codegen-adjacent analyzers — index-safety dataflow (idxmask) and
# atomic cache-line layout (falseshare) — for a fast local pass over the
# predictor tables. `make ppmlint` (via `make lint`) runs them too.
lint-codegen:
	$(GO) run ./cmd/ppmlint -run idxmask,falseshare ./...

# Codegen budget gate over the hot set (internal/lint/hotset): fails when a
# hot function gains a heap escape, a surviving bounds check or an inlining
# refusal beyond internal/lint/codegen.baseline. One go build covers every
# package with hot functions; the idxmask and hotpath analyzers point at
# the fix.
gates:
	$(GO) run ./cmd/codegate

# Regenerate the codegen baseline after an intentional change; commit the diff.
gates-update:
	$(GO) run ./cmd/codegate -update

# The experiment grid's correctness gate: every registry entry renders the
# golden record-engine bytes at every -j, each trace is generated once,
# straight into blocks that equal converting its records, and allocates
# little more than the blocks it keeps; the block engine stays
# allocation-free in steady state, the scheduler and the blocks-only trace
# cache (concurrent generation and eviction included) pass the race
# detector, and a short full-grid run at -j 4 completes under -race.
grid-smoke:
	$(GO) test -run 'TestParallelDeterminism|TestBlockEngineMatchesRecordEngine' ./cmd/experiments
	$(GO) test -run 'TestBlocksMatchRecordsConversion' ./internal/workload
	$(GO) test -run 'TestBlockEngineZeroAllocSteadyState|TestGenerateBlocksAllocBudget' ./internal/bench
	$(GO) test -race ./internal/tracecache ./internal/sched
	$(GO) run -race ./cmd/experiments -all -events 2000 -j 4 -cachestats > /dev/null

# End-to-end gate for the serving subsystem: boots a real ppmserved on an
# ephemeral port, runs a fig6 job through ppmctl, diffs the rendered matrix
# byte-for-byte against scripts/testdata/serve-smoke-fig6.golden (which is
# the serial `experiments -fig6 -events 2000` output), and SIGTERMs the
# daemon with a job in flight to prove the drain completes cleanly.
serve-smoke:
	sh scripts/serve-smoke.sh

# End-to-end gate for the live-session subsystem: boots a real ppmserved,
# trains a session over a predict stream, snapshots it, restores the bytes
# into a fresh session, and requires byte-identical continuation — NDJSON
# prediction streams and final snapshots both — then SIGTERMs the daemon
# with live sessions to prove the drain completes cleanly.
session-smoke:
	sh scripts/session-smoke.sh

lint: fmt vet ppmlint

# The correctness harness's bounded CI pass: regression-corpus replay, a
# differential hunt of every predictor family against its naive reference,
# the metamorphic identities (blocks vs records across worker counts and
# cache budgets, served vs serial, split vs concat sessions, upload vs
# batch), and byte-offset fault sweeps over the trace decoder and the upload
# endpoint.
check-quick:
	$(GO) run ./cmd/ppmcheck -quick

# The long-running hunt for local use; scales the differential search far
# past the CI bound. Divergences are minimized and written into the corpus.
check:
	$(GO) run ./cmd/ppmcheck -seeds 200 -events 5000

# Focused hunt for the modern predictor family: ITTAGE's incrementally
# folded geometric-history state and the u-bit cascade, lock-stepped against
# their bit-by-bit reference oracles — differential, blocks-vs-records and
# snapshot-restore hunts all included via the shared family registry.
check-ittage:
	$(GO) run ./cmd/ppmcheck -families ITTAGE,Cascade-u -seeds 40 -events 2500

# Short fuzz slices keep the parsers honest without turning CI into a
# fuzzing farm: the IBT2 trace reader (differential against a byte-at-a-time
# reference decoder), the snapshot codec (round-trip identity plus
# typed-error rejection of corrupted/truncated state), and a live session's
# predict endpoint (response shape, record accounting, session still usable,
# no goroutine leaks).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzStateRoundTrip -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -run='^$$' -fuzz=FuzzSessionPredict -fuzztime=$(FUZZTIME) ./internal/serve

ci: build lint gates race grid-smoke serve-smoke session-smoke check-quick check-ittage fuzz-smoke
