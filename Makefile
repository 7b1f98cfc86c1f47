# Developer entry points. `make check` is the pre-PR gate referenced in
# README.md: formatting, vet, a full build, and the race-enabled test
# suite must all pass before a change ships.

GO ?= go

.PHONY: all build test check fmt vet race bench-module bench bench-all bench-diff bench-json results results-full attr-gate sim-gate staticcheck pipeview-gate kernel-gate sweep-gate bpred-gate sched-gate core-gate fuzz-smoke gate-patterns doc-refs reach

# Pinned staticcheck version: `go run` resolves it through the module
# proxy, so the exact analyzer version is reproducible everywhere.
STATICCHECK_VERSION ?= 2025.1.1

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Pinned static analysis. Offline-gated: `go run pkg@version` must
# download the tool, so when the module proxy is unreachable (air-gapped
# build hosts) the target skips with a notice instead of failing the gate
# on a network error. Resolution is probed under both a cleared GOFLAGS
# and GOFLAGS=-mod=mod (some hosts need the explicit module mode to
# resolve pkg@version); only when the analyzer actually ran can the gate
# fail, and only on findings.
staticcheck:
	@if GOFLAGS= $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>/dev/null; then \
		echo "staticcheck: ok"; \
	elif GOFLAGS= $(GO) list -m honnef.co/go/tools@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		GOFLAGS= $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif GOFLAGS=-mod=mod $(GO) list -m honnef.co/go/tools@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		GOFLAGS=-mod=mod $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... \
			&& echo "staticcheck: ok (via GOFLAGS=-mod=mod)"; \
	else \
		echo "staticcheck: module proxy unreachable under GOFLAGS= and GOFLAGS=-mod=mod, skipping (offline)"; \
	fi

# Kernel-dispatch gate: the switch-vs-kernels differentials — the
# per-opcode exec property fuzz (and the seeds of its native fuzz target,
# kernels and pure forms against Step), the pipeline stats/memory A/B, the
# functional simulator A/B (including adversarial PREDICT oracles and
# instruction-cap straddling), the shared-Program differentials, and the
# end-to-end harness byte-identity — under the race detector and
# uncached, so the predecoded kernel table can never change a result byte
# or be shared unsafely across concurrent machines.
KERNEL_GATE_RUN := TestKernel|FuzzKernelMatchesStep|TestDispatch|TestProgram|TestInterpDispatch|TestCompileRejects|TestStepUnknown|TestDivRem|TestFus
KERNEL_GATE_PKGS := ./internal/exec/ ./internal/pipeline/ ./internal/interp/ ./internal/harness/
kernel-gate:
	$(GO) test -race -count 1 -run '$(KERNEL_GATE_RUN)' $(KERNEL_GATE_PKGS)

# Sweep flight-recorder gate: an uncached end-to-end benchmark run with
# the recorder attached must satisfy the span conservation invariant
# (exactly one terminal per unit, phases nested, counters reconciled),
# the recorder-off path must stay byte-identical and allocation-free,
# and the monitor surface (/metrics exposition, /debug/sweep, the
# concurrency hammer) must hold up; and the studies' job sets must share
# each (workload, input)'s products and render the same at any worker
# count and with every job run alone — all under the race detector.
SWEEP_GATE_RUN := TestSweep|TestRecorder|TestMonitor|TestMetricsPromFormat|TestPromValidator|TestReportSchema|TestWriteSweepArtifacts|TestJobSetSharing
SWEEP_GATE_PKGS := ./internal/engine/ ./internal/harness/ ./internal/trace/
sweep-gate:
	$(GO) test -race -count 1 -run '$(SWEEP_GATE_RUN)' $(SWEEP_GATE_PKGS)

# Predictor-observatory gate: the probe's conservation invariant (every
# resolve lands in exactly one provider/class bucket) on unit traces and
# on a real benchmark end to end, probe-off byte-identity and zero
# steady-state allocations, the v6 telemetry round-trip, the run-cache
# key audit (harness.Options classified, every pipeline.Config leaf
# perturbed), the monitor's /metrics + /debug/bpred surface, and the
# stream-level golden digests of every predictor (predictions, Meta,
# table state, probe books) under a shallow and a deep update window,
# TAGE's folded-history registers and prediction-hash memo against Fold,
# and its geometry checks — all under the race detector and uncached.
BPRED_GATE_RUN := TestProbe|TestHist|TestCtr2|TestLadderStream|TestTAGEGeometry|TestTAGEMemo|FuzzFoldedHistory|TestBpredProbe|TestReportSchema|TestRunBpredDiff|TestDiffSurfacesGolden|TestWriteBpredCSV|TestBpredCSVImpliesReport|TestRunCacheKey|TestSimKey|TestMonitorBpred
BPRED_GATE_PKGS := ./internal/bpred/ ./internal/pipeline/ ./internal/trace/ ./internal/harness/ ./internal/engine/ ./internal/cli/
bpred-gate:
	$(GO) test -race -count 1 -run '$(BPRED_GATE_RUN)' $(BPRED_GATE_PKGS)

# Scheduler gate: the near-linear block scheduler against the quadratic
# reference scheduler kept in sched_test.go, on every region of every
# benchmark's speculated baseline and transformed programs at two TRAIN
# seeds (the full matrix, so never -short), uncached.
SCHED_GATE_RUN := TestScheduleMatchesReference
SCHED_GATE_PKGS := ./internal/sched/
sched-gate:
	$(GO) test -count 1 -run '$(SCHED_GATE_RUN)' $(SCHED_GATE_PKGS)

# Core gate: the liveness the transformation passes maintain across
# their edits against a from-scratch recomputation after every hoist and
# decomposition of every int2006 and fp2006 TRAIN program, the per-edit
# allocation bound of speculation plus transformation on gobmk and gcc,
# the passes' structure and semantics tests, and the seeds of the
# transform-preserves-semantics fuzz target, uncached.
CORE_GATE_RUN := TestMaintainedLivenessExact|TestLiveness|TestBuildAllocs|TestTransform|TestSpeculate|FuzzTransformPreservesSemantics
CORE_GATE_PKGS := ./internal/ir/ ./internal/core/
core-gate:
	$(GO) test -count 1 -run '$(CORE_GATE_RUN)' $(CORE_GATE_PKGS)

# Simulator gate: frozen-cycle skipping against the per-cycle stepper
# (Stats JSON with every observer section, error, final memory and event
# stream) on random loops under every machine variation and on every
# int2006 and fp2006 -fast binary at widths 2/4/8, the fuzz target's
# seeds, the cycle-cap errors the skip's cap wake must reproduce, and the
# timing litmus tests (closed-form cycle counts of crafted programs, under
# both the skip and the stepper), uncached.
SIM_GATE_RUN := TestSkipMatchesStepper|FuzzSkipMatchesStepper|TestCycleCapErrors|TestProgramCycleCap|TestLitmus
SIM_GATE_PKGS := ./internal/pipeline/
sim-gate:
	$(GO) test -count 1 -run '$(SIM_GATE_RUN)' $(SIM_GATE_PKGS)

# Fuzz smoke: ten seconds of each native fuzz target on top of its seed
# corpus (go test -fuzz takes one target and one package per run). The
# minimizer's default 60 s budget per new input would spend the whole
# smoke shrinking the first few finds, so it is capped by count.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScheduleMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/sched/
	$(GO) test -run '^$$' -fuzz FuzzFoldMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/bpred/
	$(GO) test -run '^$$' -fuzz FuzzFoldedHistoryMatchesFold -fuzztime 10s -fuzzminimizetime 100x ./internal/bpred/
	$(GO) test -run '^$$' -fuzz FuzzAsmRoundTrip -fuzztime 10s -fuzzminimizetime 100x ./internal/asm/
	$(GO) test -run '^$$' -fuzz FuzzObserversDoNotSteer -fuzztime 10s -fuzzminimizetime 100x ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzSkipMatchesStepper -fuzztime 10s -fuzzminimizetime 100x ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesStep -fuzztime 10s -fuzzminimizetime 100x ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzReadReport -fuzztime 10s -fuzzminimizetime 100x ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzParseKonata -fuzztime 10s -fuzzminimizetime 100x ./internal/pipeview/
	$(GO) test -run '^$$' -fuzz FuzzCloneIsolation -fuzztime 10s -fuzzminimizetime 100x ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzTransformPreservesSemantics -fuzztime 10s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMissBufferMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/cache/

# Gate-pattern audit: every -run alternative of every *-gate must name
# at least one test or fuzz target (whose seed corpus -run executes) in
# the gate's packages (go test -list), so a renamed or folded test cannot
# silently drop out of its gate.
gate-patterns:
	@check() { \
		tests="$$($(GO) test -list . $$2 | grep -E '^(Test|Fuzz)')" || exit 1; \
		for alt in $$(echo "$$1" | tr '|' ' '); do \
			echo "$$tests" | grep -q -- "$$alt" || { echo "gate-patterns: -run alternative $$alt matches no test in $$2"; exit 1; }; \
		done; \
	}; \
	check '$(KERNEL_GATE_RUN)' '$(KERNEL_GATE_PKGS)' && \
	check '$(SWEEP_GATE_RUN)' '$(SWEEP_GATE_PKGS)' && \
	check '$(BPRED_GATE_RUN)' '$(BPRED_GATE_PKGS)' && \
	check '$(SCHED_GATE_RUN)' '$(SCHED_GATE_PKGS)' && \
	check '$(CORE_GATE_RUN)' '$(CORE_GATE_PKGS)' && \
	check '$(SIM_GATE_RUN)' '$(SIM_GATE_PKGS)' && \
	check '$(ATTR_GATE_RUN)' '$(ATTR_GATE_PKGS)' && \
	check '$(PIPEVIEW_GATE_RUN)' '$(PIPEVIEW_GATE_PKGS)' && \
	echo "gate-patterns: every -run alternative matches a test"

# Doc-reference audit: every Test…, Fuzz… or Benchmark… name cited in the
# top-level docs must be a prefix of at least one test, fuzz target or
# benchmark that go test -list finds, so a renamed or deleted test cannot
# stay cited. bench/README.md is not audited yet: bench/ is its own module.
DOC_REFS_FILES := README.md DESIGN.md EXPERIMENTS.md results/README.md
doc-refs:
	@out="$$($(GO) test -list . ./...)" || { echo "$$out"; exit 1; }; \
	tests="$$(echo "$$out" | grep -E '^(Test|Fuzz|Benchmark)')"; \
	bad=0; \
	for ref in $$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' $(DOC_REFS_FILES) | sort -u); do \
		echo "$$tests" | grep -q "^$$ref" || { echo "doc-refs: $$ref is cited but matches no test"; bad=1; }; \
	done; \
	if [ $$bad -ne 0 ]; then exit 1; fi; \
	echo "doc-refs: every cited test name matches a test"

# Reachability audit: build the five CLIs and the examples with coverage
# over every package, run the -fast experiments, one small leg per
# observer switch and the examples, and fail on any function no run
# reached that scripts/reach_allow.txt does not name with a reason (or
# on an entry that is reached or gone). About 4.5 minutes on 2 vCPUs;
# not part of `make check`.
reach:
	GO=$(GO) bash scripts/reach.sh

# bench/ is its own module over this one's internal packages: vet and
# test it, so a change to an API it uses cannot leave it broken unnoticed.
bench-module:
	cd bench && GOFLAGS= $(GO) vet ./... && GOFLAGS= $(GO) test ./...

# Pre-PR gate: run this before every commit.
check: fmt vet build staticcheck gate-patterns doc-refs bench-module kernel-gate sweep-gate bpred-gate sched-gate core-gate sim-gate attr-gate pipeview-gate fuzz-smoke race

# Attribution-conservation gate: every attributed fast-suite simulation
# must charge exactly cycles x width issue slots (pipeline invariant
# sweeps), match the aggregate counters per static branch, and leave
# attribution-off runs byte-identical (alone and with every other
# observer, plus the fuzz target's seeds); the differential path must
# hold the same books on both binaries of a real benchmark; and the Stats
# of fully observed fast-suite runs must match their pinned digests.
ATTR_GATE_RUN := TestAttr|TestRunAttrDiff|TestDiffSurfacesGolden|TestObservedStatsDigest|TestObserversDoNotSteer|FuzzObserversDoNotSteer
ATTR_GATE_PKGS := ./internal/pipeline/ ./internal/harness/
attr-gate:
	$(GO) test -run '$(ATTR_GATE_RUN)' -count 1 $(ATTR_GATE_PKGS)

# Simulator-throughput benchmarks (simulated MIPS + allocation counts),
# benchstat-friendly: five samples per benchmark, compare against the
# committed results/bench_baseline.txt with
#   make bench | tee new.txt && benchstat results/bench_baseline.txt new.txt
bench:
	$(GO) test -bench Sim -benchmem -count 5 -run '^$$' .

# Quick smoke pass over every table/figure benchmark.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Throughput-regression gate: rerun the Sim benchmarks and compare the
# per-benchmark mean sim-MIPS against the committed baseline with the
# in-tree comparator (no benchstat dependency). Fails on a >10% drop.
bench-diff:
	$(GO) test -bench Sim -benchmem -count 3 -run '^$$' . | tee results/.bench_new.txt
	$(GO) run ./cmd/benchdiff results/bench_baseline.txt results/.bench_new.txt
	@rm -f results/.bench_new.txt

# Perf-trajectory bookkeeping: rerun the Sim benchmarks and append the
# per-benchmark mean sim-MIPS and allocs/op to results/bench_trajectory.json
# under the current short revision, so throughput history accumulates
# commit by commit (re-running a commit updates its entry in place).
bench-json:
	$(GO) test -bench Sim -benchmem -count 3 -run '^$$' . | tee results/.bench_new.txt
	$(GO) run ./cmd/benchdiff -json results/bench_trajectory.json \
		-label "$$(git rev-parse --short HEAD)" results/.bench_new.txt
	@rm -f results/.bench_new.txt

# Pipeview gate: the lifetime-capture invariants (every fetched
# instruction reaches exactly one terminal, stage cycles are monotonic),
# the off-path byte-identity contract, the golden Konata/waterfall
# renderings and the Konata reader's fuzz seeds, uncached.
PIPEVIEW_GATE_RUN := TestPipeview|TestLifecycle|TestKonata|TestWaterfall|TestObserversDoNotSteer|FuzzParseKonata
PIPEVIEW_GATE_PKGS := ./internal/pipeline/ ./internal/pipeview/ ./internal/textplot/ ./internal/trace/
pipeview-gate:
	$(GO) test -run '$(PIPEVIEW_GATE_RUN)' -count 1 $(PIPEVIEW_GATE_PKGS)

# Regenerate the committed telemetry baselines under results/ through the
# experiment engine, then fail if they drifted from the committed files.
# Wall-clock lines (the report's only nondeterministic field) are excluded
# from the comparison; -no-cache keeps the hit/miss counters at zero so the
# engine section itself is reproducible. On drift, the regenerated files
# replace the stale baselines so they can be reviewed and committed.
results: build vet
	@drift=0; \
	for w in 2 4 8; do \
		$(GO) run ./cmd/vgrun -no-hists -no-cache -width $$w \
			-json results/.regen_w$$w.json -transform examples/asm/dotproduct.s >/dev/null || exit 1; \
		if ! diff -u -I '"wall_ms"' results/dotproduct_w$$w.json results/.regen_w$$w.json; then \
			drift=1; \
		fi; \
		mv results/.regen_w$$w.json results/dotproduct_w$$w.json; \
	done; \
	if [ $$drift -ne 0 ]; then \
		echo "results: baselines drifted from committed files (regenerated copies left in place)"; \
		exit 1; \
	fi; \
	echo "results: baselines regenerated through the engine, no drift"

# Regenerate the full-length reference outputs under results/ (Table 2
# and Figures 8-14, Figures 2 and 3, the Section 5.3 sensitivity sweep
# and every ablation; about two minutes on 2 vCPUs) uncached, and fail if
# any drifted from its committed file, as `make results` does. The
# outputs carry no wall-clock field, so the comparison is exact. Not part
# of `make check`.
results-full: build
	@drift=0; \
	for run in "spec_all:./cmd/spec -all" "fig2:./cmd/figures -fig 2" "fig3:./cmd/figures -fig 3" \
		"sens:./cmd/figures -sensitivity" "ablate:./cmd/ablate -sweep all"; do \
		f=$${run%%:*}; \
		$(GO) run $${run#*:} -no-cache > results/.regen_$$f.txt || exit 1; \
		if ! diff -u results/$$f.txt results/.regen_$$f.txt; then \
			drift=1; \
		fi; \
		mv results/.regen_$$f.txt results/$$f.txt; \
	done; \
	if [ $$drift -ne 0 ]; then \
		echo "results-full: outputs drifted from committed files (regenerated copies left in place)"; \
		exit 1; \
	fi; \
	echo "results-full: full-length outputs regenerated, no drift"
