# Developer entry points. `make check` is the pre-PR gate referenced in
# README.md: formatting, vet, a full build, and the whole test suite,
# once plain and once under the race detector, must all pass before a
# change ships.

GO ?= go

.PHONY: all build test check fmt vet race bench-module bench bench-all results results-full staticcheck fuzz-smoke doc-refs reach

# Pinned staticcheck version: `go run` resolves it through the module
# proxy, so the exact analyzer version is reproducible everywhere.
STATICCHECK_VERSION ?= 2025.1.1

all: build

build:
	$(GO) build ./...

# Every test uncached, without the race detector: some run only here,
# such as the benchmark matrix of TestSkipMatchesStepper, which skips
# under -race.
test:
	$(GO) test -count 1 ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Every test again under the race detector, uncached, so the concurrency
# tests (engine, monitor, shared Programs) run on every check.
race:
	$(GO) test -race -count 1 ./...

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

# Fuzz smoke: ten seconds of each native fuzz target that go test -list
# finds, on top of its seed corpus (go test -fuzz takes one target and
# one package per run, so they run one by one). The minimizer's default
# 60 s budget per new input would spend the whole smoke shrinking the
# first few finds, so it is capped by count.
fuzz-smoke:
	@out="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$out"; exit 1; }; \
	targets="$$(echo "$$out" | awk '/^Fuzz/ { n[++k] = $$1; next } /^ok/ { for (i = 1; i <= k; i++) print $$2 ":" n[i]; k = 0 }')"; \
	echo "fuzz-smoke: $$(echo "$$targets" | wc -w) targets"; \
	for t in $$targets; do \
		echo "fuzz-smoke: $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 10s -fuzzminimizetime 100x $${t%%:*} || exit 1; \
	done

# Doc-reference audit: every Test…, Fuzz… or Benchmark… name cited in the
# top-level docs must be a prefix of at least one test, fuzz target or
# benchmark that go test -list finds, every `make <target>` they cite
# must name a target of this Makefile, and every cmd/, internal/,
# examples/, scripts/, results/ or bench/ path they cite, and a cited
# BENCHMARK.json, must exist (a pkg.Symbol suffix such as
# internal/exec.Step is dropped first; a path inside another one, such as
# an import path's .../cmd/..., is not a repo path), so a renamed or
# deleted test, target or file cannot stay cited.
# bench/README.md is not audited yet: bench/ is its own module.
DOC_REFS_FILES := README.md DESIGN.md EXPERIMENTS.md results/README.md
doc-refs:
	@out="$$($(GO) test -list . ./...)" || { echo "$$out"; exit 1; }; \
	tests="$$(echo "$$out" | grep -E '^(Test|Fuzz|Benchmark)')"; \
	bad=0; \
	for ref in $$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' $(DOC_REFS_FILES) | sort -u); do \
		echo "$$tests" | grep -q "^$$ref" || { echo "doc-refs: $$ref is cited but matches no test"; bad=1; }; \
	done; \
	targets="$$(sed -n 's/^\([a-z][a-z0-9-]*\):.*/\1/p' Makefile)"; \
	for ref in $$(grep -ohE '`make [a-z][a-z0-9-]*' $(DOC_REFS_FILES) | sed 's/^`make //' | sort -u); do \
		echo "$$targets" | grep -qx -- "$$ref" || { echo "doc-refs: make $$ref is cited but names no Makefile target"; bad=1; }; \
	done; \
	for ref in $$(grep -ohE '(^|[^A-Za-z0-9_./-])(\./)?((cmd|internal|examples|scripts|results|bench)/[A-Za-z0-9_./-]*|BENCHMARK\.json)' $(DOC_REFS_FILES) \
		| sed -E 's/^[^A-Za-z.]//; s/^\.\///; s/\.[A-Z][^/]*$$//; s/[./]+$$//' | sort -u); do \
		[ -e "$$ref" ] || { echo "doc-refs: $$ref is cited but no such path exists"; bad=1; }; \
	done; \
	if [ $$bad -ne 0 ]; then exit 1; fi; \
	echo "doc-refs: every cited test name matches a test, every cited make target and repo path exists"

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
check: fmt vet build staticcheck doc-refs bench-module test race fuzz-smoke

# Simulator-throughput microbenchmarks (simulated MIPS + allocation
# counts), five samples per benchmark. No baseline is committed: compare
# a change against its parent on the same host, run for run. End-to-end
# claims go through bench/ (bash bench/run.sh ... -compare).
bench:
	$(GO) test -bench Sim -benchmem -count 5 -run '^$$' .

# Quick smoke pass over every table/figure benchmark.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Regenerate the committed telemetry baselines under results/ through the
# experiment engine, then fail if they drifted from the committed files:
# dotproduct.s at widths 2, 4 and 8, and sparse.s at width 4, whose one
# converted branch pins decomposed code (dotproduct.s converts none).
# Wall-clock lines (the report's only nondeterministic field) are excluded
# from the comparison; -no-cache keeps the hit/miss counters at zero so the
# engine section itself is reproducible. On drift, the regenerated files
# replace the stale baselines so they can be reviewed and committed.
results: build vet
	@drift=0; \
	for run in dotproduct:2 dotproduct:4 dotproduct:8 sparse:4; do \
		prog=$${run%%:*} w=$${run#*:}; f=results/$${prog}_w$$w.json; \
		$(GO) run ./cmd/vgrun -no-hists -no-cache -width $$w \
			-json results/.regen_$${prog}_w$$w.json -transform examples/asm/$$prog.s >/dev/null || exit 1; \
		if ! diff -u -I '"wall_ms"' $$f results/.regen_$${prog}_w$$w.json; then \
			drift=1; \
		fi; \
		mv results/.regen_$${prog}_w$$w.json $$f; \
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
