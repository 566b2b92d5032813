# redrace-go — build/test/bench entry points.

GO ?= go

.PHONY: all build test race vet fuzz chaos bench tables sweep parallel elide obs coverage-demo serve size clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full suite under the Go race detector (exercises the parallel runtime
# and the work-stealing sweep).
race:
	$(GO) test -race ./...

# Short fuzzing passes over every fuzz target, FUZZTIME each (CI runs
# `make fuzz FUZZTIME=20s`).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sched/
	$(GO) test -fuzz FuzzDedupDecode -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz FuzzDedupRoundTrip -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzFaultPlan -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz FuzzStoreRecovery -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -fuzz FuzzVerdictDecode -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -fuzz FuzzDepaOracle -fuzztime $(FUZZTIME) ./internal/depa/
	$(GO) test -fuzz FuzzElide -fuzztime $(FUZZTIME) ./internal/elide/

# The crash-recovery chaos suite: kill the store at every fault-injection
# point, reopen, and assert byte-identical verdicts (docs/ROBUSTNESS.md,
# "The durable store"). Plus the service-level durability/drain tests.
chaos:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'Restart|Drain|Recover|Journal|Ingest|Resumable' ./internal/service/ ./cmd/raderd/ ./cmd/rader/

# The observability layer under the race detector: obs core (spans,
# metrics, progress, request ring), the traced service surfaces, and the
# distributed-tracing client paths (docs/OBSERVABILITY.md).
obs:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/service/
	$(GO) test -race -count=1 -run 'Trace|Profile|Progress|Stream|Events' ./cmd/rader/

# The root testing.B suite: theorem scaling, sweep speedups.
bench:
	$(GO) test -bench . -benchmem .

# The paper's Figures 7 and 8, from the repository benchmark's live
# workload (bench/README.md).
tables:
	bash bench/run.sh --workload live --seed 1 --seconds 20 --trace 1

# The work-stealing sweep suite under the race detector (scheduler,
# deques, snapshot handoff, sampling, equivalence), then the prefix and
# work-stealing sweep speedups (docs/SWEEP.md).
sweep:
	$(GO) test -race -count=1 -run 'Sweep|Steal|Deque|Handoff|Sample' ./internal/rader/ ./internal/specgen/
	$(GO) test -run '^$$' -bench '^BenchmarkSweep(Stealing)?$$' .

# depa's critical-path scaling over 1/2/4/8 shards (docs/PARALLEL.md).
parallel:
	$(GO) test -run '^$$' -bench '^BenchmarkShardCriticalPath$$' -benchtime 10x ./internal/depa/

# The static-elision shrink/parity gate on the six apps (docs/ELISION.md).
elide:
	$(GO) test -count=1 -run '^TestElideAppsParityAndShrink$$' -v ./internal/elide/

# The §7 coverage sweep finding the Figure 1 race.
coverage-demo:
	$(GO) run ./cmd/rader -prog fig1 -coverage || true

# Run the analysis daemon in the foreground (docs/SERVICE.md).
serve:
	$(GO) run ./cmd/raderd

# The two code-size numbers ROADMAP aim 2 tracks: non-test Go lines
# outside bench/, and exported identifiers as `go doc -short` lines per
# internal/ package, with their total.
size:
	@printf 'non-test Go lines outside bench/: '; \
	find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
	@echo 'go doc -short lines per internal/ package:'; \
	total=0; for p in internal/*/; do \
		n=$$($(GO) doc -short ./$$p | wc -l); total=$$((total + n)); \
		printf '%6d %s\n' $$n $${p%/}; \
	done; printf '%6d total\n' $$total

clean:
	$(GO) clean ./...
