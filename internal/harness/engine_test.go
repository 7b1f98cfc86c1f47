package harness

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/engine"
	"vanguard/internal/pipeline"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// reportBytes renders a JSON report with the engine section stripped —
// everything that is allowed to vary between runs lives there.
func reportBytes(t *testing.T, rs []*BenchResult) []byte {
	t.Helper()
	rep := JSONReport("test", rs)
	rep.Engine = nil
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsDifferential: the same suite run serially and on eight workers
// must produce byte-identical reports (modulo the engine section). This is
// the determinism guarantee the engine's ordered aggregation provides; it
// runs under -race in `make check`, doubling as the concurrency audit of
// the shared build artifacts. FastOptions' two REF inputs share an
// iteration count, so at eight workers several simulations run over one
// shared pipeline.Program at once.
func TestJobsDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc", "gobmk"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	o1 := fastOptions()
	o1.Jobs = 1
	o1.Recorder = engine.NewSweepRecorder()
	r1, err := RunBenchmarks(cs, o1)
	if err != nil {
		t.Fatal(err)
	}

	o8 := fastOptions()
	o8.Jobs = 8
	o8.Recorder = engine.NewSweepRecorder()
	r8, err := RunBenchmarks(cs, o8)
	if err != nil {
		t.Fatal(err)
	}

	b1, b8 := reportBytes(t, r1), reportBytes(t, r8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("-jobs=1 and -jobs=8 reports differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", b1, b8)
	}

	// The engine section still records what actually happened.
	rep1, rep8 := o1.Recorder.EngineReport(), o8.Recorder.EngineReport()
	if rep1.Jobs != 1 {
		t.Errorf("jobs=1 run reported %d workers", rep1.Jobs)
	}
	if rep8.Jobs < 2 {
		t.Errorf("jobs=8 run reported %d workers, want >= 2", rep8.Jobs)
	}
	if rep1.Units != rep8.Units {
		t.Errorf("unit counts differ: %d vs %d", rep1.Units, rep8.Units)
	}
	if len(rep1.UnitWall) != rep1.Units {
		t.Errorf("unit wall list has %d entries, want %d", len(rep1.UnitWall), rep1.Units)
	}
	for i := range rep1.UnitWall {
		if rep1.UnitWall[i].Label != rep8.UnitWall[i].Label {
			t.Fatalf("unit %d labels differ across jobs counts: %q vs %q",
				i, rep1.UnitWall[i].Label, rep8.UnitWall[i].Label)
		}
	}
}

// TestJobs1RepeatDifferential: two independent serial runs of the -fast
// suite must produce byte-identical reports (modulo the engine section).
// Together with the committed results/ baselines — which were generated by
// the pre-rewrite core and are enforced by `make results` — this pins the
// optimized simulator to the seed semantics: any timing or stats change in
// the core shows up as a diff in one gate or the other.
func TestJobs1RepeatDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"perlbench", "lbm"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	run := func() []byte {
		o := fastOptions()
		o.Jobs = 1
		rs, err := RunBenchmarks(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, rs)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated -jobs=1 runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestProgramMemoDifferential: simulations of one job share a memoized
// pipeline.Program per patched image. Run concurrently, each must produce
// byte-identical Stats to a machine built by pipeline.New over a private
// patched image and memory. FastOptions' two REF inputs share an
// iteration count, so both inputs' simulations of one binary share one
// Program.
func TestProgramMemoDifferential(t *testing.T) {
	c, ok := workload.ByName("h264ref")
	if !ok {
		t.Fatal("missing benchmark h264ref")
	}
	o := fastOptions()
	o.Widths = []int{2, 4}
	j := newBenchJob(c, o)
	a, err := j.artifacts()
	if err != nil {
		t.Fatal(err)
	}
	if o.RefInputs[0].Iters != o.RefInputs[1].Iters {
		t.Fatal("FastOptions REF inputs no longer share an iteration count")
	}
	for _, binary := range []string{"base", "exp"} {
		p0, err0 := j.program(binary, o.RefInputs[0].Iters)
		p1, err1 := j.program(binary, o.RefInputs[1].Iters)
		if err0 != nil || err1 != nil || p0 != p1 {
			t.Fatalf("%s: inputs with one iteration count got distinct Programs (errs %v, %v)", binary, err0, err1)
		}
	}

	type sim struct {
		input, width int
		binary       string
	}
	var sims []sim
	for ii := range o.RefInputs {
		for _, w := range o.Widths {
			for _, binary := range []string{"base", "exp"} {
				sims = append(sims, sim{ii, w, binary})
			}
		}
	}
	got := make([]*pipeline.Stats, len(sims))
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for k, s := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = j.simulate(s.input, s.binary, j.machineConfig(s.width))
		}()
	}
	wg.Wait()

	for k, s := range sims {
		if errs[k] != nil {
			t.Fatalf("%+v: %v", s, errs[k])
		}
		ia, err := j.input(s.input)
		if err != nil {
			t.Fatal(err)
		}
		im := a.baseIm
		if s.binary == "exp" {
			im = a.expIm
		}
		want, err := pipeline.New(c.PatchIters(im, o.RefInputs[s.input].Iters), ia.refMem.Clone(), j.machineConfig(s.width)).Run()
		if err != nil {
			t.Fatalf("%+v: private machine: %v", s, err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got[k])
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%+v: shared-Program simulation diverged from a private machine\nprivate: %s\nshared:  %s", s, wb, gb)
		}
	}
}

// TestWarmCache: a second run over a shared cache directory reports hits
// for every timing simulation and produces identical results.
func TestWarmCache(t *testing.T) {
	cache, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := workload.ByName("libquantum")

	run := func() ([]*BenchResult, *trace.EngineReport) {
		o := fastOptions()
		o.Cache, o.Recorder = cache, engine.NewSweepRecorder()
		rs, err := RunBenchmarks([]workload.Config{c}, o)
		if err != nil {
			t.Fatal(err)
		}
		return rs, o.Recorder.EngineReport()
	}

	cold, coldRep := run()
	if coldRep.CacheHits != 0 {
		t.Fatalf("cold run reported %d hits", coldRep.CacheHits)
	}
	if coldRep.CacheMisses == 0 {
		t.Fatal("cold run stored nothing in the cache")
	}

	warm, warmRep := run()
	if warmRep.CacheHits == 0 {
		t.Fatal("warm run reported no cache hits")
	}
	if warmRep.CacheHits != coldRep.CacheMisses {
		t.Errorf("warm hits %d != cold misses %d", warmRep.CacheHits, coldRep.CacheMisses)
	}
	if warmRep.CacheMisses != 0 {
		t.Errorf("warm run still missed %d units", warmRep.CacheMisses)
	}
	if !bytes.Equal(reportBytes(t, cold), reportBytes(t, warm)) {
		t.Error("cached results differ from computed results")
	}
}

// TestMonitorFeedsCachedResults: a probed, attributed run feeds /metrics
// the same attribution slot totals and predictor study counts when every
// simulation is a cache hit as when each was computed.
func TestMonitorFeedsCachedResults(t *testing.T) {
	cache, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := mustBench(t, "libquantum")
	run := func() (string, *trace.EngineReport) {
		o := fastOptions()
		o.Attr, o.Probe = true, true
		o.Cache, o.Recorder = cache, engine.NewSweepRecorder()
		o.Monitor = engine.NewMonitor(o.Recorder)
		if _, err := RunBenchmarks([]workload.Config{c}, o); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		o.Monitor.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var fed []string
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if strings.HasPrefix(line, "vanguard_attr_") || strings.HasPrefix(line, "vanguard_bpred_") {
				fed = append(fed, line)
			}
		}
		return strings.Join(fed, "\n"), o.Recorder.EngineReport()
	}
	cold, coldRep := run()
	warm, warmRep := run()
	if warmRep.CacheMisses != 0 || warmRep.CacheHits != coldRep.CacheMisses {
		t.Fatalf("warm pass: %d hits, %d misses; want %d hits, 0 misses",
			warmRep.CacheHits, warmRep.CacheMisses, coldRep.CacheMisses)
	}
	for _, metric := range []string{"vanguard_attr_slots_total{", "vanguard_bpred_studies_total 4"} {
		if !strings.Contains(cold, metric) {
			t.Errorf("cold pass fed no %s:\n%s", metric, cold)
		}
	}
	if warm != cold {
		t.Errorf("cache hits fed /metrics differently:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// Nothing to feed is not an error: no monitor, a build unit's nil
	// result, a run with neither section.
	ObserveResults(nil, &pipeline.Stats{})
	ObserveResults(engine.NewMonitor(engine.NewSweepRecorder()), nil, &pipeline.Stats{})
}

// TestAnonymousPredictorBypassesCache: a NewPredictor closure without a
// PredictorName cannot be hashed into a key, so those runs must never be
// served from (or stored in) the cache.
func TestAnonymousPredictorBypassesCache(t *testing.T) {
	c, _ := workload.ByName("libquantum")
	o := fastOptions()
	o.NewPredictor = func() bpred.DirPredictor { return bpred.NewDefault() }
	o.PredictorName = ""
	key := func() string {
		j := newBenchJob(c, o)
		return j.simKey(o.RefInputs[0], "base", j.machineConfig(4))
	}
	if k := key(); k != "" {
		t.Errorf("anonymous predictor produced cache key %q", k)
	}
	o.PredictorName = "default"
	def := key()
	if def == "" {
		t.Error("named predictor must produce a cache key")
	}
	// Distinct predictors must never alias.
	o.PredictorName = "gshare-64k"
	if key() == def {
		t.Error("different predictor names produced the same key")
	}
}

// TestSuiteCache: repeated Suite calls reuse the first result set.
func TestSuiteCache(t *testing.T) {
	sc := NewSuiteCache(fastOptions())
	a, err := sc.Suite("fp2000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Suite("fp2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("suite sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("suite cache returned fresh results on the second call")
		}
	}
}

// TestFastOptions: the shared -fast block matches what the CLIs relied on
// before it was deduplicated.
func TestFastOptions(t *testing.T) {
	o := FastOptions()
	if o.TrainInput.Iters >= DefaultOptions().TrainInput.Iters {
		t.Error("FastOptions must shrink the train input")
	}
	if len(o.RefInputs) != 2 {
		t.Errorf("FastOptions has %d ref inputs, want 2", len(o.RefInputs))
	}
	if len(o.Widths) == 0 {
		t.Error("FastOptions must keep the width sweep")
	}
}
