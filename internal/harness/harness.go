// Package harness drives the paper's experiments end to end: generate a
// benchmark, profile it on TRAIN, build the baseline binary (biased-branch
// speculation + block scheduling) and the experimental binary (the same
// plus the Decomposed Branch Transformation), simulate both on the REF
// inputs across machine widths, verify architectural equivalence, and
// aggregate the metrics each table and figure reports.
//
// Execution goes through the experiment engine (internal/engine): each
// driver enumerates its work as independent simulation units, runs them
// on a bounded worker pool, and aggregates deterministically — see
// engine.go in this package.
package harness

import (
	"fmt"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/metrics"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	Widths       []int // machine widths to simulate (paper: 2, 4, 8)
	TrainInput   workload.Input
	RefInputs    []workload.Input
	NewPredictor func() bpred.DirPredictor // nil = Table 1 default
	// PredictorName names NewPredictor for the run-cache key. Simulations
	// with an anonymous predictor (NewPredictor set, no name) bypass the
	// cache rather than risk aliasing distinct predictors.
	PredictorName string
	// ICacheBytes overrides the L1-I capacity (Section 6.1's 24KB run).
	ICacheBytes int
	// DBBEntries overrides the Decomposed Branch Buffer depth (ablation;
	// 0 keeps the paper's 16).
	DBBEntries int
	// Verify cross-checks every timing run's memory against the golden
	// functional model (slower; on by default via DefaultOptions).
	Verify bool
	// Transform options.
	Core core.Options
	Spec core.SpeculateOptions

	// Execution policy (see the experiment engine in internal/engine):
	// Jobs bounds the worker pool (<= 0 selects GOMAXPROCS), Cache is the
	// content-keyed on-disk run cache (nil disables cross-invocation
	// reuse), and Recorder, when non-nil, is the ledger every engine run
	// this options value drives books its units in (the source of a
	// command's engine telemetry, sweep recording and live progress; nil
	// gives each run a private one). None of the three changes simulated
	// results: aggregation is deterministic in enumeration order
	// regardless of scheduling.
	Jobs     int
	Cache    *engine.Cache
	Recorder *engine.SweepRecorder
	// Monitor, when non-nil, is the live view of Recorder (-progress,
	// -listen); the harness feeds it each result's attribution and
	// predictor-study rollups (ObserveResults).
	Monitor *engine.Monitor

	// SampleWindow enables the pipeline's cycle-window time-series
	// sampler on every simulation (pipeline.Config.SampleWindow). It is
	// part of the run-cache key: sampled and unsampled results never
	// alias.
	SampleWindow int64

	// Attr enables per-cause cycle attribution on every simulation
	// (pipeline.Config.Attr): each run's Stats carries an attr.Report
	// charging every issue slot to one cause. Part of the run-cache key;
	// attributed and plain results never alias.
	Attr bool

	// Dispatch selects the execution engine for every simulation and
	// golden run (pipeline.Config.Dispatch / interp.Options.Dispatch):
	// compiled per-PC kernels (the zero value and the default) or the
	// reference exec.Step switch. The two are byte-identical on stats and
	// reports (TestKernelDispatchDifferential), but Dispatch is still part
	// of the run-cache key so an A/B sweep never serves one mode's entries
	// to the other.
	Dispatch exec.Dispatch

	// PipeviewBench names one benchmark whose simulations run with the
	// pipeline waterfall recorder enabled (pipeview.DefaultConfig): their
	// Stats carry a trace.PipeviewReport of per-instruction lifetimes.
	// Empty disables pipeview everywhere. Part of the run-cache key:
	// pipeviewed and plain results never alias, and capture stays cheap by
	// being scoped to the one benchmark under study.
	PipeviewBench string

	// Probe enables the predictor observatory on every simulation
	// (pipeline.Config.Probe): each run's Stats carries a
	// bpred.StudyReport of table-level predictor usage and the per-branch
	// predictability classification. Part of the run-cache key: probed and
	// plain results never alias.
	Probe bool
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{
		Widths:     []int{2, 4, 8},
		TrainInput: workload.TrainInput(),
		RefInputs:  workload.RefInputs(),
		Verify:     true,
		Core:       core.DefaultOptions(),
		Spec:       core.DefaultSpeculateOptions(),
	}
}

// FastOptions returns the reduced-input smoke configuration every CLI's
// -fast flag starts from, so the quick-run settings cannot drift between
// tools. Callers narrow further (fewer REF inputs, one width) as their
// experiment requires.
func FastOptions() Options {
	o := DefaultOptions()
	o.TrainInput = workload.Input{Seed: 101, Iters: 800}
	o.RefInputs = []workload.Input{{Seed: 202, Iters: 1000}, {Seed: 303, Iters: 1000}}
	return o
}

// WidthRun is one (input, width) measurement pair.
type WidthRun struct {
	Width     int
	Base, Exp *pipeline.Stats
}

// InputResult aggregates one REF input.
type InputResult struct {
	Input workload.Input
	Runs  []WidthRun
}

// SpeedupPct returns the % speedup at the given width.
func (r *InputResult) SpeedupPct(width int) float64 {
	for _, wr := range r.Runs {
		if wr.Width == width {
			return metrics.SpeedupPct(wr.Base.Cycles, wr.Exp.Cycles)
		}
	}
	return 0
}

// BenchResult is one benchmark's full measurement.
type BenchResult struct {
	Config  workload.Config
	Profile *profile.Profile
	Report  *core.Report
	Inputs  []InputResult
	// Static code sizes in instructions.
	StaticBase, StaticExp int
}

// SpeedupAllRefsPct is the Figures 8/10/12/13 number: geomean across REF
// inputs at one width.
func (b *BenchResult) SpeedupAllRefsPct(width int) float64 {
	var ss []float64
	for i := range b.Inputs {
		ss = append(ss, b.Inputs[i].SpeedupPct(width))
	}
	return metrics.GeomeanSpeedupPct(ss)
}

// SpeedupBestRefPct is the Figures 9/11 number.
func (b *BenchResult) SpeedupBestRefPct(width int) float64 {
	best := 0.0
	for i := range b.Inputs {
		if s := b.Inputs[i].SpeedupPct(width); i == 0 || s > best {
			best = s
		}
	}
	return best
}

// run returns the first REF input's run at width, or nil when that
// width was not simulated.
func (b *BenchResult) run(width int) *WidthRun {
	if len(b.Inputs) == 0 {
		return nil
	}
	for i, wr := range b.Inputs[0].Runs {
		if wr.Width == width {
			return &b.Inputs[0].Runs[i]
		}
	}
	return nil
}

// IssuedIncreasePct is the Figure 14 number at width 4: % increase in
// issued instructions, experimental over baseline, geomean over inputs.
func (b *BenchResult) IssuedIncreasePct() float64 {
	var ss []float64
	for i := range b.Inputs {
		for _, wr := range b.Inputs[i].Runs {
			if wr.Width == 4 && wr.Base.Issued > 0 {
				ss = append(ss, 100*float64(wr.Exp.Issued-wr.Base.Issued)/float64(wr.Base.Issued))
			}
		}
	}
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s
	}
	return sum / float64(len(ss))
}

// Table2 builds the benchmark's Table 2 row.
func (b *BenchResult) Table2() metrics.Table2Row {
	row := metrics.Table2Row{
		Name:  b.Config.Name,
		SPD:   b.SpeedupAllRefsPct(4),
		PBC:   b.Report.PBC(),
		PHI:   metrics.PHI(b.Report),
		PISCS: 100 * float64(b.StaticExp-b.StaticBase) / float64(b.StaticBase),
	}
	if wr := b.run(4); wr != nil {
		row.MPPKI = wr.Base.MPKI()
		row.ASPCB = metrics.ASPCB(b.Report, wr.Exp)
		row.PDIH = metrics.PDIH(b.Report, b.Profile, wr.Exp.Committed)
	}
	return row
}

// predictor returns a fresh direction predictor per the options.
func (o *Options) predictor() bpred.DirPredictor {
	if o.NewPredictor != nil {
		return o.NewPredictor()
	}
	return bpred.NewDefault()
}

// BuildBinaries produces the scheduled baseline and experimental programs
// for a benchmark, plus the TRAIN profile and transform report.
func BuildBinaries(c workload.Config, o Options) (base, exp *ir.Program, prof *profile.Profile, rep *core.Report, err error) {
	trainProg, trainMem := c.Generate(o.TrainInput)
	return buildFrom(c, o, trainProg, ir.MustLinearize(trainProg), trainMem)
}

// buildFrom is BuildBinaries after Generate: it profiles im, the
// linearized trainProg, over trainMem (which the profiling run mutates)
// and builds both binaries from clones of trainProg, which it only reads.
func buildFrom(c workload.Config, o Options, trainProg *ir.Program, im *ir.Image, trainMem *mem.Memory) (base, exp *ir.Program, prof *profile.Profile, rep *core.Report, err error) {
	prof, err = profile.Collect(im, trainMem, o.predictor(), 200_000_000)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: profile: %w", c.Name, err)
	}

	base = trainProg.Clone()
	if _, err = core.SpeculateBiasedBranches(base, prof, o.Spec); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: baseline speculation: %w", c.Name, err)
	}
	exp = base.Clone()
	rep, err = core.Transform(exp, prof, o.Core)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: transform: %w", c.Name, err)
	}
	model := sched.DefaultModel(4)
	sched.Program(base, model)
	sched.Program(exp, model)
	return base, exp, prof, rep, nil
}

// RunBenchmark measures one benchmark under the options.
func RunBenchmark(c workload.Config, o Options) (*BenchResult, error) {
	rs, err := RunBenchmarks([]workload.Config{c}, o)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunBenchmarks measures a set of benchmarks as one experiment-engine job
// set: every (benchmark, input, width, binary) simulation becomes an
// independent unit on the worker pool, and results aggregate in
// enumeration order, so the output is identical for any worker count.
func RunBenchmarks(cs []workload.Config, o Options) ([]*BenchResult, error) {
	jobs := make([]*benchJob, len(cs))
	for i, c := range cs {
		jobs[i] = newBenchJob(c, o)
	}
	return runBenchJobs(jobs, o)
}

// RunSuite measures every benchmark of a suite.
func RunSuite(suite string, o Options) ([]*BenchResult, error) {
	return RunBenchmarks(workload.Suite(suite), o)
}
