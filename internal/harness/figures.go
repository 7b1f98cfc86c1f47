package harness

import (
	"context"
	"fmt"
	"io"

	"vanguard/internal/bpred"
	"vanguard/internal/engine"
	"vanguard/internal/ir"
	"vanguard/internal/metrics"
	"vanguard/internal/profile"
	"vanguard/internal/workload"
)

// Curve is the Figures 2/3 data: the top forward branches of a suite,
// sorted by descending bias, averaged rank-wise across benchmarks after
// resampling each benchmark's curve to Points entries.
type Curve struct {
	Bias           []float64
	Predictability []float64
}

// CurvePoints matches the paper's top-75 figure width.
const CurvePoints = 75

// benchCurve is one benchmark's resampled curve — the cacheable unit
// result of the figure-2/3 profiling runs. Empty slices mean the
// benchmark had too few eligible branches to contribute.
type benchCurve struct {
	Bias, Pred []float64
}

// BiasPredictabilityCurve computes the Figure 2 (integer) or Figure 3
// (floating point) series for a suite, with per-benchmark profiling runs
// spread over the experiment engine; o contributes only the execution
// policy (Jobs, Cache, Recorder).
func BiasPredictabilityCurve(suite string, in workload.Input, o Options) (*Curve, error) {
	var units []engine.Unit[benchCurve]
	for _, c := range workload.Suite(suite) {
		units = append(units, engine.Unit[benchCurve]{
			Label: fmt.Sprintf("curve/%s/seed=%d,iters=%d", c.Name, in.Seed, in.Iters),
			Key:   engine.Key(harnessVersion, "curve", c, in, CurvePoints),
			Run: func(context.Context) (benchCurve, error) {
				p, m := c.Generate(in)
				prof, err := profile.CollectDefault(ir.MustLinearize(p), m, 200_000_000)
				if err != nil {
					return benchCurve{}, err
				}
				bias, pred := prof.BiasPredictabilityCurve(CurvePoints)
				if len(bias) < 2 {
					return benchCurve{}, nil
				}
				return benchCurve{Bias: resample(bias, CurvePoints), Pred: resample(pred, CurvePoints)}, nil
			},
		})
	}
	curves, _, err := RunUnits(o, units)
	if err != nil {
		return nil, err
	}

	agg := &Curve{
		Bias:           make([]float64, CurvePoints),
		Predictability: make([]float64, CurvePoints),
	}
	n := 0
	for _, bc := range curves {
		if len(bc.Bias) == 0 {
			continue
		}
		for i := 0; i < CurvePoints; i++ {
			agg.Bias[i] += bc.Bias[i]
			agg.Predictability[i] += bc.Pred[i]
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("suite %q produced no curves", suite)
	}
	for i := range agg.Bias {
		agg.Bias[i] /= float64(n)
		agg.Predictability[i] /= float64(n)
	}
	return agg, nil
}

// resample linearly interpolates xs onto n points.
func resample(xs []float64, n int) []float64 {
	out := make([]float64, n)
	if len(xs) == 1 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(len(xs)-1) / float64(n-1)
		lo := int(pos)
		frac := pos - float64(lo)
		hi := lo
		if lo+1 < len(xs) {
			hi = lo + 1
		}
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
	return out
}

// WriteCurve renders the curve as an aligned table.
func (c *Curve) Write(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%-6s %8s %14s\n", title, "rank", "bias", "predictability")
	for i := range c.Bias {
		fmt.Fprintf(w, "%-6d %8.4f %14.4f\n", i+1, c.Bias[i], c.Predictability[i])
	}
}

// SensitivityRow is one (benchmark, predictor) measurement of Section 5.3.
type SensitivityRow struct {
	Benchmark  string
	Predictor  string
	MPKI       float64 // baseline mispredictions per 1000 instructions
	SpeedupPct float64 // decomposed-branch speedup at width 4
}

// SensitivityBenchmarks are the four hard-to-predict integer benchmarks
// the paper singles out.
func SensitivityBenchmarks() []string { return []string{"astar", "sjeng", "gobmk", "mcf"} }

// Sensitivity runs the Section 5.3 study: each benchmark across the
// predictor ladder, re-profiling and re-transforming with each predictor
// (the DBT system would re-optimize for the deployed front end). The full
// (benchmark x predictor) matrix runs as one engine job set.
func Sensitivity(benchmarks []string, base Options) ([]SensitivityRow, error) {
	jobs, err := sensitivityJobs(benchmarks, base)
	if err != nil {
		return nil, err
	}
	rs, err := runBenchJobs(jobs, base)
	if err != nil {
		return nil, err
	}
	return sensitivityRows(benchmarks, rs), nil
}

// sensitivityJobs enumerates the study's jobs, benchmark-major.
func sensitivityJobs(benchmarks []string, base Options) ([]*benchJob, error) {
	var jobs []*benchJob
	for _, name := range benchmarks {
		c, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, spec := range bpred.LadderSpecs() {
			o := base
			o.Widths = []int{4}
			o.NewPredictor = spec.New
			o.PredictorName = spec.Name
			jobs = append(jobs, newBenchJob(c, o))
		}
	}
	return jobs, nil
}

// sensitivityRows aggregates the results of sensitivityJobs.
func sensitivityRows(benchmarks []string, rs []*BenchResult) []SensitivityRow {
	specs := bpred.LadderSpecs()
	var rows []SensitivityRow
	for bi, name := range benchmarks {
		for si, spec := range specs {
			r := rs[bi*len(specs)+si]
			wr := r.run(4)
			rows = append(rows, SensitivityRow{
				Benchmark:  name,
				Predictor:  spec.Name,
				MPKI:       wr.Base.MPKI(),
				SpeedupPct: r.SpeedupAllRefsPct(4),
			})
		}
	}
	return rows
}

// WriteSensitivity renders the study with the per-benchmark
// speedup-per-misprediction slope the paper quotes (~0.3%/1%).
func WriteSensitivity(w io.Writer, rows []SensitivityRow) {
	fmt.Fprintln(w, "Section 5.3: branch predictor sensitivity (4-wide)")
	fmt.Fprintf(w, "%-8s %-20s %8s %10s\n", "bench", "predictor", "MPKI", "speedup%")
	byBench := map[string][]SensitivityRow{}
	var order []string
	for _, r := range rows {
		if _, seen := byBench[r.Benchmark]; !seen {
			order = append(order, r.Benchmark)
		}
		byBench[r.Benchmark] = append(byBench[r.Benchmark], r)
		fmt.Fprintf(w, "%-8s %-20s %8.2f %10.2f\n", r.Benchmark, r.Predictor, r.MPKI, r.SpeedupPct)
	}
	for _, b := range order {
		rs := byBench[b]
		first, last := rs[0], rs[len(rs)-1]
		// Misprediction-rate change in percentage points ~ MPKI/10 given
		// the roughly 10% branch density of these workloads.
		dmr := (first.MPKI - last.MPKI) / 10
		if dmr != 0 {
			fmt.Fprintf(w, "%s: %+.2f%% speedup per 1%% misprediction-rate reduction\n",
				b, (last.SpeedupPct-first.SpeedupPct)/dmr)
		}
	}
}

// ICacheStudy is the Section 6.1 experiment: shrink the 32KB L1-I by 25%
// and measure the baseline-configuration slowdown (the paper reports
// < 0.5% geomean on the 4-wide in-order) along with the fraction of I$
// misses occurring under a branch misprediction.
type ICacheStudy struct {
	Benchmark        string
	SlowdownPct      float64 // baseline at 24KB vs 32KB
	MissUnderMispred float64 // fraction of I$ misses in a mispredict shadow (32KB)
}

// RunICacheStudy executes the study over a suite: both configurations of
// every benchmark run as one engine job set.
func RunICacheStudy(suite string, base Options) ([]ICacheStudy, error) {
	cs := workload.Suite(suite)
	rs, err := runBenchJobs(icacheJobs(cs, base), base)
	if err != nil {
		return nil, err
	}
	return icacheRows(cs, rs), nil
}

// icacheJobs enumerates the study's jobs: the 32KB and the 24KB machine
// of each benchmark in turn.
func icacheJobs(cs []workload.Config, base Options) []*benchJob {
	small := base
	small.ICacheBytes = 24 << 10
	small.Widths = []int{4}
	big := base
	big.Widths = []int{4}
	var jobs []*benchJob
	for _, c := range cs {
		jobs = append(jobs, newBenchJob(c, big), newBenchJob(c, small))
	}
	return jobs
}

// icacheRows aggregates the results of icacheJobs.
func icacheRows(cs []workload.Config, rs []*BenchResult) []ICacheStudy {
	var out []ICacheStudy
	for ci, c := range cs {
		rBig, rSmall := rs[2*ci], rs[2*ci+1]
		wb, ws := rBig.run(4), rSmall.run(4)
		slow := (float64(ws.Base.Cycles)/float64(wb.Base.Cycles) - 1) * 100
		frac := 0.0
		if wb.Base.ICacheMisses > 0 {
			frac = float64(wb.Base.ICacheMissUnderMispred) / float64(wb.Base.ICacheMisses)
		}
		out = append(out, ICacheStudy{Benchmark: c.Name, SlowdownPct: slow, MissUnderMispred: frac})
	}
	return out
}

// WriteICacheStudy renders the Section 6.1 results.
func WriteICacheStudy(w io.Writer, rows []ICacheStudy) {
	fmt.Fprintln(w, "Section 6.1: 24KB vs 32KB L1-I (4-wide baseline)")
	fmt.Fprintf(w, "%-11s %12s %22s\n", "bench", "slowdown%", "I$ miss under mispred")
	var ratios []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %12.3f %21.1f%%\n", r.Benchmark, r.SlowdownPct, 100*r.MissUnderMispred)
		ratios = append(ratios, 1+r.SlowdownPct/100)
	}
	fmt.Fprintf(w, "GEOMEAN slowdown: %.3f%%\n", (metrics.Geomean(ratios)-1)*100)
}
