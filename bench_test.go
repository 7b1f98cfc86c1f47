// Package vanguard's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index).
// Each benchmark runs the corresponding experiment once per b.N iteration
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The -short variants used by the unit
// test suite shrink inputs; benchmarks run the full configuration.
package vanguard_test

import (
	"io"
	"sync"
	"testing"

	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/metrics"
	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	return o
}

// suiteGeomean runs a whole suite at the given widths and returns the
// per-width geomean speedups.
func suiteGeomean(b *testing.B, suite string, widths []int, bestRef bool) map[int]float64 {
	b.Helper()
	o := benchOptions()
	o.Widths = widths
	rs, err := harness.RunSuite(suite, o)
	if err != nil {
		b.Fatal(err)
	}
	out := map[int]float64{}
	for _, w := range widths {
		var ss []float64
		for _, r := range rs {
			if bestRef {
				ss = append(ss, r.SpeedupBestRefPct(w))
			} else {
				ss = append(ss, r.SpeedupAllRefsPct(w))
			}
		}
		out[w] = metrics.GeomeanSpeedupPct(ss)
	}
	return out
}

// BenchmarkFig2PredictabilityVsBiasInt regenerates Figure 2.
func BenchmarkFig2PredictabilityVsBiasInt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cur, err := harness.BiasPredictabilityCurve("int2006", workload.TrainInput(), harness.Options{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		tail := harness.CurvePoints - 1
		b.ReportMetric(cur.Bias[tail], "tail-bias")
		b.ReportMetric(cur.Predictability[tail], "tail-predictability")
	}
}

// BenchmarkFig3PredictabilityVsBiasFP regenerates Figure 3.
func BenchmarkFig3PredictabilityVsBiasFP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cur, err := harness.BiasPredictabilityCurve("fp2006", workload.TrainInput(), harness.Options{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		tail := harness.CurvePoints - 1
		b.ReportMetric(cur.Bias[tail], "tail-bias")
		b.ReportMetric(cur.Predictability[tail], "tail-predictability")
	}
}

// BenchmarkTable2Metrics regenerates Table 2 (SPEC 2006 INT+FP at 4-wide).
func BenchmarkTable2Metrics(b *testing.B) {
	o := benchOptions()
	o.Widths = []int{4}
	for i := 0; i < b.N; i++ {
		var all []*harness.BenchResult
		for _, s := range []string{"int2006", "fp2006"} {
			rs, err := harness.RunSuite(s, o)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, rs...)
		}
		harness.WriteTable2(io.Discard, all)
		var spds []float64
		for _, r := range all {
			spds = append(spds, r.SpeedupAllRefsPct(4))
		}
		b.ReportMetric(metrics.GeomeanSpeedupPct(spds), "geomean-spd-%")
	}
}

// BenchmarkFig8SpeedupInt2006 regenerates Figure 8 (all widths, all refs).
func BenchmarkFig8SpeedupInt2006(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "int2006", []int{2, 4, 8}, false)
		b.ReportMetric(g[2], "geomean-w2-%")
		b.ReportMetric(g[4], "geomean-w4-%")
		b.ReportMetric(g[8], "geomean-w8-%")
	}
}

// BenchmarkFig9BestRefInt2006 regenerates Figure 9 (best REF input).
func BenchmarkFig9BestRefInt2006(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "int2006", []int{4}, true)
		b.ReportMetric(g[4], "geomean-w4-best-%")
	}
}

// BenchmarkFig10SpeedupInt2000 regenerates Figure 10.
func BenchmarkFig10SpeedupInt2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "int2000", []int{2, 4, 8}, false)
		b.ReportMetric(g[4], "geomean-w4-%")
	}
}

// BenchmarkFig11BestRefInt2000 regenerates Figure 11.
func BenchmarkFig11BestRefInt2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "int2000", []int{4}, true)
		b.ReportMetric(g[4], "geomean-w4-best-%")
	}
}

// BenchmarkFig12SpeedupFP2006 regenerates Figure 12.
func BenchmarkFig12SpeedupFP2006(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "fp2006", []int{2, 4, 8}, false)
		b.ReportMetric(g[4], "geomean-w4-%")
	}
}

// BenchmarkFig13SpeedupFP2000 regenerates Figure 13.
func BenchmarkFig13SpeedupFP2000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := suiteGeomean(b, "fp2000", []int{2, 4, 8}, false)
		b.ReportMetric(g[4], "geomean-w4-%")
	}
}

// BenchmarkFig14IssuedIncrease regenerates Figure 14.
func BenchmarkFig14IssuedIncrease(b *testing.B) {
	o := benchOptions()
	o.Widths = []int{4}
	for i := 0; i < b.N; i++ {
		rs, err := harness.RunSuite("int2006", o)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rs {
			sum += r.IssuedIncreasePct()
		}
		b.ReportMetric(sum/float64(len(rs)), "mean-issued-increase-%")
	}
}

// BenchmarkSensitivityPredictorLadder regenerates the Section 5.3 study.
func BenchmarkSensitivityPredictorLadder(b *testing.B) {
	o := benchOptions()
	o.Widths = []int{4}
	for i := 0; i < b.N; i++ {
		rows, err := harness.Sensitivity(harness.SensitivityBenchmarks(), o)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteSensitivity(io.Discard, rows)
		// Headline: speedup gain from the bottom to the top of the ladder,
		// averaged over the four benchmarks.
		per := len(rows) / len(harness.SensitivityBenchmarks())
		gain := 0.0
		for k := 0; k < len(rows); k += per {
			gain += rows[k+per-1].SpeedupPct - rows[k].SpeedupPct
		}
		b.ReportMetric(gain/float64(len(harness.SensitivityBenchmarks())), "ladder-speedup-gain-%")
	}
}

// BenchmarkSec61CodeSizeICache regenerates the Section 6.1 study.
func BenchmarkSec61CodeSizeICache(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunICacheStudy("int2006", o)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteICacheStudy(io.Discard, rows)
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, 1+r.SlowdownPct/100)
		}
		b.ReportMetric((metrics.Geomean(ratios)-1)*100, "geomean-icache-slowdown-%")
	}
}

// benchEngineSuite runs the reduced-input int2006 suite through the
// experiment engine at a fixed worker count, reporting the unit count so
// the per-unit cost is comparable across variants.
func benchEngineSuite(b *testing.B, jobs int) {
	b.Helper()
	o := harness.FastOptions()
	o.Jobs = jobs
	for i := 0; i < b.N; i++ {
		es := &harness.EngineStats{}
		o.EngineStats = es
		if _, err := harness.RunSuite("int2006", o); err != nil {
			b.Fatal(err)
		}
		rep := es.Report()
		b.ReportMetric(float64(rep.Units), "units")
		b.ReportMetric(float64(rep.Jobs), "workers")
	}
}

// BenchmarkEngineSuiteJobs1 and BenchmarkEngineSuiteJobsMax compare the
// same engine job set at one worker vs GOMAXPROCS workers. On a
// multi-core machine the Max variant's wall time should approach
// jobs1/GOMAXPROCS; on one core the pair bounds the worker pool's
// scheduling overhead (the two times should match).
func BenchmarkEngineSuiteJobs1(b *testing.B)   { benchEngineSuite(b, 1) }
func BenchmarkEngineSuiteJobsMax(b *testing.B) { benchEngineSuite(b, 0) }

// ---- simulator-core throughput (the BenchmarkSim* suite) ----
//
// These benchmarks measure the single-machine hot path — pipeline.Machine
// cycling one loaded program — as simulated MIPS (committed instructions
// per wall second, in millions). `make bench` runs exactly this suite
// (-bench Sim -benchmem -count 5) against results/bench_baseline.txt, so
// core regressions show up as a diffable drop in sim-MIPS or a nonzero
// rise in allocs/op. The build products (profile, transform, schedule) are
// constructed once and shared; each iteration simulates a fresh machine
// over a fresh memory clone, exactly like one harness simulation unit.

var simSetup struct {
	once      sync.Once
	base, exp *ir.Image
	mem       *mem.Memory
	err       error
}

// simImages builds (once) the baseline and decomposed perlbench binaries
// and the REF memory image the Sim benchmarks run over.
func simImages(b *testing.B) (base, exp *ir.Image, m *mem.Memory) {
	b.Helper()
	s := &simSetup
	s.once.Do(func() {
		c, ok := workload.ByName("perlbench")
		if !ok {
			s.err = io.ErrUnexpectedEOF
			return
		}
		o := harness.FastOptions()
		o.Verify = false
		baseP, expP, _, _, err := harness.BuildBinaries(c, o)
		if err != nil {
			s.err = err
			return
		}
		in := workload.Input{Seed: 202, Iters: 12_000}
		_, refMem := c.Generate(in)
		s.base = c.PatchIters(ir.MustLinearize(baseP), in.Iters)
		s.exp = c.PatchIters(ir.MustLinearize(expP), in.Iters)
		s.mem = refMem
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.base, s.exp, s.mem
}

// benchSim runs one (image, width) simulation per iteration and reports
// throughput as sim-MIPS.
func benchSim(b *testing.B, im *ir.Image, m *mem.Memory, width int) {
	b.Helper()
	var instrs, cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach := pipeline.New(im, m.Clone(), pipeline.DefaultConfig(width))
		st, err := mach.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Committed
		cycles += st.Cycles
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "sim-MIPS")
		b.ReportMetric(float64(cycles)/secs/1e6, "sim-Mcyc/s")
	}
}

// BenchmarkSimBaseW2/W4/W8 cycle the baseline (speculated + scheduled)
// binary across the Table 1 widths; BenchmarkSimDecomposedW4 cycles the
// experimental binary, exercising the PREDICT/RESOLVE/DBB paths.
func BenchmarkSimBaseW2(b *testing.B) {
	base, _, m := simImages(b)
	benchSim(b, base, m, 2)
}

func BenchmarkSimBaseW4(b *testing.B) {
	base, _, m := simImages(b)
	benchSim(b, base, m, 4)
}

func BenchmarkSimBaseW8(b *testing.B) {
	base, _, m := simImages(b)
	benchSim(b, base, m, 8)
}

func BenchmarkSimDecomposedW4(b *testing.B) {
	_, exp, m := simImages(b)
	benchSim(b, exp, m, 4)
}

// ---- sweep-shaped throughput ----
//
// A sweep is many short, config-identical simulations differing only in
// seed — exactly what ablation ladders and sensitivity studies enumerate
// by the thousands. BenchmarkSimSweepW4 runs a 64-unit sweep as scalar
// machines over one shared predecoded Program, the way the harness runs
// the simulations of one patched image, and reports aggregate sim-MIPS
// across the whole sweep.

const sweepUnits = 64

var sweepSetup struct {
	once sync.Once
	im   *ir.Image
	mems []*mem.Memory
	err  error
}

// sweepImages builds (once) the shared baseline perlbench binary and one
// REF memory image per sweep unit (a distinct seed each, same iteration
// count — the same-config different-input shape that shares a Program).
func sweepImages(b *testing.B) (*ir.Image, []*mem.Memory) {
	b.Helper()
	s := &sweepSetup
	s.once.Do(func() {
		c, ok := workload.ByName("perlbench")
		if !ok {
			s.err = io.ErrUnexpectedEOF
			return
		}
		o := harness.FastOptions()
		o.Verify = false
		baseP, _, _, _, err := harness.BuildBinaries(c, o)
		if err != nil {
			s.err = err
			return
		}
		const iters = 1000
		s.im = c.PatchIters(ir.MustLinearize(baseP), iters)
		for u := 0; u < sweepUnits; u++ {
			_, m := c.Generate(workload.Input{Seed: int64(1000 + u), Iters: iters})
			s.mems = append(s.mems, m)
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.im, s.mems
}

func BenchmarkSimSweepW4(b *testing.B) {
	im, mems := sweepImages(b)
	cfg := pipeline.DefaultConfig(4)
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := pipeline.Predecode(im)
		for _, m := range mems {
			st, err := prog.NewMachine(m.Clone(), cfg).Run()
			if err != nil {
				b.Fatal(err)
			}
			instrs += st.Committed
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "sim-MIPS")
	}
}

// BenchmarkTable1Machine measures raw simulator throughput on the Table 1
// configuration — cycles simulated per second on a representative
// benchmark — so substrate performance regressions are visible.
func BenchmarkTable1Machine(b *testing.B) {
	c, _ := workload.ByName("perlbench")
	o := benchOptions()
	o.Widths = []int{4}
	o.Verify = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunBenchmark(c, o); err != nil {
			b.Fatal(err)
		}
	}
}
