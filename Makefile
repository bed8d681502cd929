# Build and verification entry points. `make ci` runs the same checks as
# .github/workflows/ci.yml, which gives each `ci` prerequisite its own step;
# every target works offline with only the Go toolchain installed.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: all build test race test-386 lint fmt vet ppmlint gates gates-update mutants grid-smoke outputs-check serve-smoke session-smoke check-quick check check-ittage bench-smoke fuzz-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The whole suite with a 32-bit int: catches constants and conversions that
# only fit a 64-bit int (amd64 hosts run the 386 test binaries natively).
test-386:
	GOARCH=386 $(GO) test ./...

# gofmt -l prints offending files; fail loudly instead of silently succeeding.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's own analyzers: determinism, ifaceassert, lockorder,
# mustclose, panicdoc. Each keeps a mutant-table row only it catches
# (make mutants); allocations and bounds checks in the hot set are the
# codegen gate's job.
ppmlint:
	$(GO) run ./cmd/ppmlint ./...

# Codegen budget gate over the hot set (internal/lint/hotset): fails when a
# hot function gains a heap escape, a surviving bounds check or an inlining
# refusal beyond internal/lint/codegen.baseline. One go build covers every
# package with hot functions; a key above budget lists the file:line of
# each of its diagnostics.
gates:
	$(GO) run ./cmd/codegate

# Regenerate the codegen baseline after an intentional change; commit the diff.
gates-update:
	$(GO) run ./cmd/codegate -update

# The mutant table (internal/mutants): applies each row's one-file mutant
# without touching the working tree and requires every listed killer to
# fail on it; an analyzer's evidence row must also pass go test, -race,
# the codegen gate and the other analyzers. Prints one line per row, the
# kill count and the wall time. Not part of ci: it takes minutes.
mutants:
	$(GO) run ./cmd/mutants

# The experiment grid's correctness gate: every registry entry renders the
# golden record-engine bytes at every -j, the generator's traces keep their
# pinned SHA-256 hashes and its integer gap draw equals the float form, each
# trace is generated once, straight into blocks that equal converting its
# records, and allocates
# little more than the blocks it keeps; the block engine stays
# allocation-free in steady state, the scheduler and the blocks-only trace
# cache (concurrent generation and eviction included) pass the race
# detector, and a short full-grid run at -j 4 completes under -race.
grid-smoke:
	$(GO) test -run 'TestParallelDeterminism|TestBlockEngineMatchesRecordEngine|TestOnePassPerExperiment' ./cmd/experiments
	$(GO) test -run 'TestTraceGolden|TestGapDrawMatchesFloat|TestBlocksMatchRecordsConversion' ./internal/workload
	$(GO) test -run 'TestBlockEngineZeroAllocSteadyState|TestGenerateBlocksAllocBudget' ./internal/bench
	$(GO) test -race ./internal/tracecache ./internal/sched
	$(GO) run -race ./cmd/experiments -all -events 2000 -j 4 -cachestats > /dev/null

# The checked-in experiment outputs are what the program prints: full-scale
# -all and -ext, compared byte for byte with experiments_output.txt and
# experiments_ext_output.txt.
outputs-check:
	@tmp="$$(mktemp -d)" && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	"$$tmp/experiments" -all > "$$tmp/all.txt" && cmp "$$tmp/all.txt" experiments_output.txt && \
	"$$tmp/experiments" -ext > "$$tmp/ext.txt" && cmp "$$tmp/ext.txt" experiments_ext_output.txt

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

# The correctness harness's bounded CI pass: regression-corpus replay, the
# three lock-step hunts of check.Hunts (every predictor family against its
# naive reference, block engine against record engine, snapshot/restore at
# every cut against the uncut run), the metamorphic identities (blocks vs records across worker counts and
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
# their bit-by-bit reference oracles — every row of check.Hunts
# (differential, blocks-vs-records, snapshot-restore) restricted to them.
check-ittage:
	$(GO) run ./cmd/ppmcheck -families ITTAGE,Cascade-u -seeds 40 -events 2500

# The benchmark is its own module, so the root build, vet and tests skip it,
# yet it compiles against check, sim, sched, serve, state and trace: vet it
# and run its smoke tests against the tree's current API.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Short fuzz slices keep the parsers honest without turning CI into a
# fuzzing farm: the IBT2 trace reader (differential against a byte-at-a-time
# reference decoder), the snapshot codec (round-trip identity plus
# typed-error rejection of corrupted/truncated state), a live session's
# predict endpoint (response shape, record accounting, session still usable,
# no goroutine leaks), and the trace upload endpoint, which streams each
# body through one goroutine per predictor (one cell counting exactly the
# decoded records or a typed 4xx, the server still usable, no goroutine
# leaks).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzStateRoundTrip -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -run='^$$' -fuzz=FuzzSessionPredict -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzUpload -fuzztime=$(FUZZTIME) ./internal/serve

ci: build lint gates race test-386 grid-smoke outputs-check serve-smoke session-smoke check-quick check-ittage bench-smoke fuzz-smoke
