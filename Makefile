# Developer entry points for the checks ROADMAP.md requires before merging.
# `make check` is the full pre-merge gate: tier-1 (build + test), gofmt,
# static analysis (go vet + hpelint), the race-detector subsets over the suite's
# shared-cache paths, the probe hot path and the serving layer, the fuzz
# seed corpus, the runnable examples, and the perfbench module (a separate module that root
# `go build ./...` never compiles, but that drives the server and cluster
# APIs). One command reproduces everything CI would ask for.

GO ?= go

.PHONY: all check build test fmt vet lint lint-bench spec-goldens race race-probe serve-check workload-check fuzz-seed examples perfbench-check bench bench-probe profile profile-run clean

all: check

check: build fmt vet lint spec-goldens test race race-probe serve-check workload-check fuzz-seed examples perfbench-check

# Tier-1 verify (ROADMAP.md).
build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt over the whole tree. internal/lint/testdata/ is excluded: its
# fixtures are analyzer inputs, some deliberately unformatted.
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# hpelint machine-checks the repo's load-bearing invariants (DESIGN.md §10):
# determinism, map-order hygiene, probe nil-guards, context threading, lock
# discipline, hot-path allocation freedom, lock-acquisition order, and the
# /v1 error envelope. Exit 1 means a finding; fix it or annotate the line
# above with `//lint:ignore hpelint/<analyzer> reason`. The second run
# self-lints the analyzer suite: hpelint's own output must obey the
# determinism rules it enforces.
lint:
	$(GO) build ./cmd/hpelint && ./hpelint ./... && ./hpelint ./internal/lint/ ./cmd/hpelint/

# Wall-clock for the full analyzer suite over the whole repo (the call graph
# dominates). Informational; run it when touching internal/lint to keep the
# precommit slice fast.
lint-bench:
	$(GO) build ./cmd/hpelint && time ./hpelint ./...

# RunSpec identity goldens (DESIGN.md §12): the committed canonical-JSON +
# Spec.ID() fixtures must match exactly — a drift means cached results and
# client-side run IDs silently diverge. Deliberate spec changes bump
# runspec.IDVersion and regenerate with
# `go test ./internal/runspec/ -run SpecGoldens -update-spec-goldens`.
spec-goldens:
	$(GO) test -run SpecGoldens -count=1 ./internal/runspec/

# The shared-cache paths under the race detector: the singleflight memo
# (internal/flight), the workload cache over it (internal/runspec), and the
# experiment suite that runs through both.
race:
	$(GO) test -race -run 'Concurrent|Dedup|RunPool' ./internal/experiments/ ./internal/flight/ ./internal/runspec/

# The probe hot path and the rewritten event engine under the race detector:
# emission sites, Chrome-trace streaming, probed-vs-unprobed determinism, and
# parallel independent engines (no hidden shared state in the SoA store).
race-probe:
	$(GO) test -race -run 'Probe|Trace|Race' ./internal/probe/ ./internal/gpu/ ./internal/sim/

# The one /v1 surface under the race detector (DESIGN.md §9, §13): the
# shared handler set (coalescer, result cache, admission queue,
# cancellation, the soak test), the coordinator's ring executor (routing,
# re-dispatch and circuit breaking, the chaos kill/pause tests, byte-identity
# of merged sweeps against single-node goldens, the concurrent soak), and
# the daemon's SIGTERM lifecycle and connection timeouts.
serve-check:
	$(GO) vet ./internal/server/ ./internal/cluster/ ./cmd/hped/
	$(GO) test -race -count=1 -timeout 600s ./internal/server/ ./internal/cluster/ ./cmd/hped/

# Workload v2 (DESIGN.md §14) under the race detector: phase-schedule and
# colocation generators, scenario presets, the versioned .hpet codec
# (v1/v2 round-trips, annotation tables, fuzzed header validation), and
# concurrent readers of a freshly built trace.
workload-check:
	$(GO) test -race -count=1 ./internal/workload/... ./internal/trace/

# Fuzz targets, seed corpus only (the -fuzz loop is interactive; run
# `go test -fuzz=FuzzEngineEquivalence ./internal/sim/`,
# `go test -fuzz=FuzzCatalogGenerate ./internal/workload/` (catalog app ×
# scale 1–64; the seeds cover every app at scales 1–4),
# `go test -fuzz=FuzzPhaseSchedule ./internal/workload/`,
# `go test -fuzz=FuzzDecode ./internal/runspec/`,
# `go test -fuzz=FuzzPageTable ./internal/pagetable/`,
# `go test -fuzz=FuzzPolicyEquivalence ./internal/policy/`,
# `go test -fuzz=FuzzHPEEquivalence ./internal/hpe/`,
# `go test -fuzz=FuzzSubmitRun ./internal/server/` (POST /v1/runs bodies
# through the handler: 200 or a 4xx envelope, never a 5xx), or
# `go test -fuzz=FuzzSubmitSuite ./internal/server/` (POST /v1/suite bodies
# over a runner that fails every cell: 2xx or a vocabulary envelope) to
# explore).
fuzz-seed:
	$(GO) test -run 'Fuzz' ./internal/workload/ ./internal/sim/ ./internal/trace/ ./internal/runspec/ ./internal/pagetable/ ./internal/policy/ ./internal/hpe/ ./internal/server/

# Run every example end to end (each takes well under a second): they
# exercise the public facade the way a library user does, so an API change
# that compiles but breaks a walk-through fails here.
EXAMPLES := quickstart policycompare oversubscription patternexplorer uvmtuning
examples:
	@for e in $(EXAMPLES); do \
		echo "go run ./examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# The perfbench module builds against this module's internal packages; vet
# and test it so an API reshape cannot silently break the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Probe overhead contract: BenchmarkNilProbe must track
# BenchmarkSimulatorThroughput-class numbers (nil probe = one dead branch
# per emission site); BenchmarkMetricsProbe prices the instrumentation.
bench-probe:
	$(GO) test -run '^$$' -bench 'BenchmarkNilProbe|BenchmarkMetricsProbe' -benchtime=5x -count=3 .

# CPU and memory profiles of one serial full-suite run (every experiment,
# Workers 1): where the simulator's time goes, layer by layer, the suite's
# total allocations and bytes (-benchmem), and the top allocation sites by
# count (sampled). The profiles and the test binary stay in .profile/
# (git-ignored); inspect further with
# `go tool pprof .profile/hpe.test .profile/cpu.pprof` (or mem.pprof).
PROFILE_DIR := .profile

# $(call profile-bench,BENCHMARK,FILE-PREFIX,ITERATIONS): run one root
# benchmark with -benchmem, then print its CPU profile and top allocation
# sites.
define profile-bench
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^$(1)$$' -benchtime $(3)x -benchmem \
		-cpuprofile $(PROFILE_DIR)/$(2)cpu.pprof -memprofile $(PROFILE_DIR)/$(2)mem.pprof \
		-o $(PROFILE_DIR)/hpe.test .
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/hpe.test $(PROFILE_DIR)/$(2)cpu.pprof
	$(GO) tool pprof -top -nodecount 20 -sample_index=alloc_objects $(PROFILE_DIR)/hpe.test $(PROFILE_DIR)/$(2)mem.pprof
endef

profile:
	$(call profile-bench,BenchmarkSuiteFullSerial,,1)

# The same for hpe.Run over the catalog at scales 1 and 4 under LRU with the
# zero RunEnv (BenchmarkRunCatalog): every run generates its own trace, as in
# perfbench's `sim` workload, which the suite's memoized traces hide from
# `make profile`. Ten passes (about 5 s) give the CPU profile enough samples;
# -benchmem reports per pass. Profiles: .profile/run-cpu.pprof and
# run-mem.pprof.
profile-run:
	$(call profile-bench,BenchmarkRunCatalog,run-,10)

clean:
	rm -f hpelint
	rm -rf $(PROFILE_DIR)
	$(GO) clean ./...
