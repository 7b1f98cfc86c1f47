package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/trace"
)

// layerMetrics are the per-layer metrics a traced run computes, in the
// order README.md's layer table lists them. The result file holds all of
// them; the last line prints reportedLayers.
var layerMetrics = []metricDef{
	{"workload.generate_s", "s"},
	{"workload.patch_s", "s"},
	{"profile.collect_s", "s"},
	{"profile.dyn_instrs_m", "M"},
	{"profile.mips", "M/s"},
	{"core.speculate_s", "s"},
	{"core.transform_s", "s"},
	{"core.converted", "count"},
	{"sched.program_s", "s"},
	{"sched.static_instrs_k", "k"},
	{"sched.ns_per_instr", "ns"},
	{"sched.max_block_instrs", "count"},
	{"sched.mallocs_k", "k"},
	{"ir.linearize_s", "s"},
	{"interp.golden_s", "s"},
	{"interp.instrs_m", "M"},
	{"interp.mips", "M/s"},
	{"pipeline.new_s", "s"},
	{"pipeline.new_mallocs_k", "k"},
	{"pipeline.run_s", "s"},
	{"pipeline.committed_m", "M"},
	{"pipeline.cycles_m", "M"},
	{"pipeline.sim_mips", "M/s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.fetch_share", "share"},
	{"pipeline.issue_share", "share"},
	{"pipeline.resolve_share", "share"},
	{"exec.share", "share"},
	{"bpred.share", "share"},
	{"bpred.mispredicts_k", "k"},
	{"bpred.mpki", "1/k"},
	{"cache.share", "share"},
	{"cache.l1d_miss_rate", "share"},
	{"cache.icache_misses_k", "k"},
	{"mem.clone_s", "s"},
	{"mem.verify_s", "s"},
	{"mem.share", "share"},
	{"engine.units", "count"},
	{"engine.hit_ratio", "share"},
	{"engine.get_s", "s"},
	{"engine.decode_s", "s"},
	{"engine.put_s", "s"},
	{"engine.encode_s", "s"},
	{"engine.entry_kb", "kB"},
	{"engine.queue_wait_s", "s"},
	{"engine.critical_unit_s", "s"},
	{"engine.parallel_bound", "ratio"},
	{"harness.report_s", "s"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"layers.unmapped_share", "share"},
}

// Limits of the traced run's own checks.
const (
	maxUnmappedShare = 0.05
	minSpanCoverage  = 0.90
)

// tracedRun makes the three passes of a traced run, in this order:
//
//   - one real harness run with the engine's sweep recorder, which gives
//     the queue, probe and critical-unit numbers and the digest the
//     replays must reproduce (it also warms the process up);
//   - a serial replay of the same experiment with a span around every
//     layer call and mallocs read at each span boundary;
//   - the same replay under the CPU profiler, folded through layers.txt.
//
// A pass fails when it errors or its check does not hold; the run is
// correct only when all three pass.
func tracedRun(w *benchWorkload, seed int64, dir, out string) (*Result, error) {
	rules, err := parseLayers(layersTxt)
	if err != nil {
		return nil, err
	}
	p, err := w.setup(seed, dir)
	if err != nil {
		return nil, err
	}
	defer p.close()

	res := newResult(w, seed)
	res.Trace = true
	res.Inputs = p.inputs
	res.Attempted = 3
	fail := func(format string, args ...any) {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		fmt.Fprintf(os.Stderr, "%s: traced run: %s\n", w.name, res.Errors[len(res.Errors)-1])
	}
	m := map[string]float64{}

	// The harness with the sweep recorder.
	o := p.o
	if !w.warm {
		var d string
		if o.Cache, d, err = freshCache(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
	}
	rec := engine.NewSweepRecorder()
	o.Recorder = rec
	runtime.GC()
	t0 := time.Now()
	res.Digest, err = w.experiment(o)
	harnessWall := time.Since(t0)
	sweep := rec.Report()
	switch {
	case err != nil:
		fail("harness: %v", err)
	case seed == 0 && res.Digest != res.Expected:
		fail("harness digest %s, expected %s", res.Digest, res.Expected)
	default:
		if err := sweep.Check(); err != nil {
			fail("sweep recording: %v", err)
		}
	}
	sweepMetrics(m, sweep)

	// The replays keep their own run cache: cold workloads start each
	// replay empty, the warm one reads a cache an untimed replay filled.
	var cleanups []string
	replayCache := func() (*engine.Cache, error) {
		c, d, err := freshCache(dir)
		if err == nil {
			cleanups = append(cleanups, d)
		}
		return c, err
	}
	defer func() {
		for _, d := range cleanups {
			os.RemoveAll(d)
		}
	}()
	var warmCache *engine.Cache
	if w.warm {
		if warmCache, err = replayCache(); err != nil {
			return nil, err
		}
		fill := &replayer{cache: warmCache}
		if _, err := fill.replay(w, p.o); err != nil {
			return nil, fmt.Errorf("filling the replay cache: %w", err)
		}
	}
	newReplayer := func(tr *tracer) (*replayer, error) {
		if warmCache != nil {
			return &replayer{tr: tr, cache: warmCache}, nil
		}
		c, err := replayCache()
		return &replayer{tr: tr, cache: c}, err
	}

	// The traced replay.
	r, err := newReplayer(newTracer(true))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	gc0 := readGC()
	digest, err := r.replay(w, p.o)
	gc1 := readGC()
	switch {
	case err != nil:
		fail("replay: %v", err)
	case digest != res.Digest:
		fail("replay digest %s differs from the harness digest %s", digest, res.Digest)
	case r.tr.coverage() < minSpanCoverage:
		fail("span self times cover %.1f%% of the replay's work, below %.0f%%", 100*r.tr.coverage(), 100*minSpanCoverage)
	}
	replayWall := r.tr.spans[0].dur()
	replayMetrics(m, r)
	m["runtime.gc_cpu_share"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	m["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	m["trace.overhead_pct"] = 100 * (replayWall.Seconds()/harnessWall.Seconds() - 1)
	res.Coverage = r.tr.coverage()
	res.BookkeepingS = r.tr.bookkeeping.Seconds()
	res.SelfTimes = r.tr.byName()
	base := filepath.Join(out, w.name)
	if err := r.tr.writeJSON(base+".trace.json", w.name, seed); err != nil {
		return nil, err
	}
	if err := r.tr.writeChrome(base+".chrome.json", w.name); err != nil {
		return nil, err
	}

	// The profiled replay.
	if r, err = newReplayer(nil); err != nil {
		return nil, err
	}
	prof, err := profileReplay(r, w, p.o, base+".cpu.pprof", rules)
	if err != nil {
		fail("profile: %v", err)
	} else {
		if err := os.WriteFile(base+".pprof-top.txt", []byte(prof.text), 0o644); err != nil {
			return nil, err
		}
		res.LayerShares = prof.shares
		m["pipeline.fetch_share"] = prof.shares["pipeline.fetch"]
		m["pipeline.issue_share"] = prof.shares["pipeline.issue"]
		m["pipeline.resolve_share"] = prof.shares["pipeline.resolve"]
		for _, l := range []string{"exec", "bpred", "cache", "mem"} {
			m[l+".share"] = prof.shares[l]
		}
		m["layers.unmapped_share"] = prof.unmapped
		switch {
		case prof.digest != res.Digest:
			fail("profiled replay digest %s differs from the harness digest %s", prof.digest, res.Digest)
		case prof.unmapped > maxUnmappedShare:
			fail("%.1f%% of CPU samples map to no layer (limit %.0f%%): %v",
				100*prof.unmapped, 100*maxUnmappedShare, unmappedFunctions(prof.rows, rules))
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6
	}
	res.Layers = m
	res.Correct = res.Failed == 0
	return res, nil
}

// foldedProfile is the CPU profile of one replay, folded by layer.
type foldedProfile struct {
	text     string // the `go tool pprof -top` listing
	rows     []topRow
	shares   map[string]float64
	unmapped float64
	digest   string // the replay's result digest
}

// profileReplay runs the replay under the CPU profiler, writes the
// profile to path and folds its `go tool pprof -top` listing by layer.
func profileReplay(r *replayer, w *benchWorkload, o harness.Options, path string, rules []layerRule) (*foldedProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	digest, rerr := r.replay(w, o)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	text, err := pprofTop(path)
	if err != nil {
		return nil, err
	}
	rows, err := parseTop(text)
	if err != nil {
		return nil, err
	}
	shares, unmapped := fold(rows, rules)
	return &foldedProfile{text: text, rows: rows, shares: shares, unmapped: unmapped, digest: digest}, nil
}

// replayMetrics derives the span- and count-based per-layer metrics.
func replayMetrics(m map[string]float64, r *replayer) {
	self := map[string]float64{}
	mallocs := map[string]float64{}
	for _, lt := range r.tr.byName() {
		self[lt.Name] = lt.SelfS
		mallocs[lt.Name] = float64(lt.Mallocs)
	}
	n := r.n
	for _, name := range []string{
		"workload.generate", "workload.patch", "profile.collect", "core.speculate",
		"core.transform", "sched.program", "ir.linearize", "interp.golden", "pipeline.new",
		"pipeline.run", "mem.clone", "mem.verify", "engine.get", "engine.decode",
		"engine.put", "engine.encode", "harness.report",
	} {
		m[name+"_s"] = self[name]
	}
	m["profile.dyn_instrs_m"] = float64(n.profDynInstrs) / 1e6
	m["profile.mips"] = ratio(float64(n.profDynInstrs)/1e6, self["profile.collect"])
	m["core.converted"] = float64(n.converted)
	m["sched.static_instrs_k"] = float64(n.schedInstrs) / 1e3
	m["sched.ns_per_instr"] = ratio(self["sched.program"]*1e9, float64(n.schedInstrs))
	m["sched.max_block_instrs"] = float64(n.maxBlockInstrs)
	m["sched.mallocs_k"] = mallocs["sched.program"] / 1e3
	m["interp.instrs_m"] = float64(n.goldenInstrs) / 1e6
	m["interp.mips"] = ratio(float64(n.goldenInstrs)/1e6, self["interp.golden"])
	m["pipeline.new_mallocs_k"] = mallocs["pipeline.new"] / 1e3
	m["pipeline.committed_m"] = float64(n.committed) / 1e6
	m["pipeline.cycles_m"] = float64(n.cycles) / 1e6
	m["pipeline.sim_mips"] = ratio(float64(n.computedCommits)/1e6, self["pipeline.run"])
	m["pipeline.ns_per_cycle"] = ratio(self["pipeline.run"]*1e9, float64(n.computedCycles))
	m["bpred.mispredicts_k"] = float64(n.mispredicts) / 1e3
	m["bpred.mpki"] = ratio(float64(n.mispredicts)*1e3, float64(n.committed))
	m["cache.l1d_miss_rate"] = ratio(n.l1dMissRateSum, float64(n.sims))
	m["cache.icache_misses_k"] = float64(n.icacheMisses) / 1e3
	m["engine.entry_kb"] = ratio(float64(n.entryBytes)/1e3, float64(n.entries))
}

// sweepMetrics derives the engine's scheduling metrics from the harness
// pass's flight recording. A unit's service time is its lifecycle minus
// its queue residency.
func sweepMetrics(m map[string]float64, s *trace.SweepReport) {
	m["engine.units"] = float64(s.Units)
	m["engine.hit_ratio"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	m["engine.queue_wait_s"] = float64(s.QueueWaitUS) / 1e6
	service := map[int]int64{}
	for _, sp := range s.Spans {
		switch sp.Phase {
		case trace.SweepPhaseUnit:
			service[sp.Unit] += sp.DurUS
		case trace.SweepPhaseQueue:
			service[sp.Unit] -= sp.DurUS
		}
	}
	var total, longest int64
	for _, us := range service {
		total += us
		longest = max(longest, us)
	}
	m["engine.critical_unit_s"] = float64(longest) / 1e6
	m["engine.parallel_bound"] = ratio(float64(total), float64(longest))
}

// gcSample is the runtime's cumulative CPU accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unreportedLayers are the ten times that read 0 on a workload whose
// layer does no work there: the simulation, golden-run, patching and
// cache-write times on int2006-warm, and the cache-decode time on the
// cold workloads. BENCHMARK.json's per_layer list and the last line leave
// them out; the result file keeps them.
var unreportedLayers = []string{
	"workload.patch_s",
	"interp.golden_s",
	"pipeline.new_s",
	"pipeline.run_s",
	"pipeline.ns_per_cycle",
	"mem.clone_s",
	"mem.verify_s",
	"engine.decode_s",
	"engine.put_s",
	"engine.encode_s",
}

// reportedLayers are the per-layer metrics BENCHMARK.json lists, in
// layerMetrics order.
func reportedLayers() []metricDef {
	var out []metricDef
	for _, d := range layerMetrics {
		if !slices.Contains(unreportedLayers, d.name) {
			out = append(out, d)
		}
	}
	return out
}
