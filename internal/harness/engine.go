package harness

import (
	"context"
	"fmt"
	"sync"

	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/workload"
)

// harnessVersion tags run-cache keys with the harness-level simulation
// recipe. Bump it when a change alters simulated results without
// changing any key part (workload, inputs, transform options, resolved
// machine Config): a new build step, scheduling model or timing rule.
const harnessVersion = "harness/v7"

// benchJob is one (benchmark, options) experiment. The engine expands it
// into a build unit (profile, transform, schedule — shared products) plus
// one simulation unit per (input, width, binary).
type benchJob struct {
	c    workload.Config
	o    Options
	arts *jobArts
}

// jobArts holds the per-job shared build products. They are constructed
// at most once (sync.Once) by whichever unit needs them first; every
// product is read-only after construction, so simulation units on other
// workers may consume them concurrently. Each simulation still gets its
// own pipeline.Machine and copy-on-write memory clone — the "one machine
// per goroutine" contract DESIGN.md documents — over a Program shared per
// patched image.
type jobArts struct {
	once sync.Once
	err  error

	baseIm, expIm         *ir.Image
	prof                  *profile.Profile
	rep                   *core.Report
	staticBase, staticExp int

	// train and inputs may be shared with other jobs of the job set
	// (shareInputs).
	train  *trainArts
	inputs []*inputArts // parallel to o.RefInputs
	// progs memoizes the iteration-patched image and its predecoded
	// Program per (binary, iters). Its keys are fixed by newBenchJob, so
	// lookups need no lock; each entry builds under its own sync.Once.
	progs map[progKey]*progArts
}

// progKey names one patched image of a job: PatchIters bakes the REF
// iteration count into the binary.
type progKey struct {
	binary string
	iters  int64
}

// progArts is one memoized patched image, predecoded for simulation.
type progArts struct {
	once sync.Once
	prog *pipeline.Program
}

// trainArts holds the products of one (workload, TRAIN input): the
// program, its linearized image and its initialized memory, a sealed
// snapshot (mem.Memory.Clone) that each build profiles a clone of. All
// three are read-only once built.
type trainArts struct {
	once sync.Once
	prog *ir.Program
	im   *ir.Image
	mem  *mem.Memory
}

// inputArts holds the products of one (workload, REF input): the
// initialized memory image, a sealed snapshot each simulation clones,
// and, under Verify, the golden architectural memory every timing run is
// checked against.
type inputArts struct {
	once   sync.Once
	err    error
	refMem *mem.Memory
	gold   *mem.Memory
}

func newBenchJob(c workload.Config, o Options) *benchJob {
	a := &jobArts{
		train:  &trainArts{},
		inputs: make([]*inputArts, len(o.RefInputs)),
		progs:  map[progKey]*progArts{},
	}
	for i, in := range o.RefInputs {
		a.inputs[i] = &inputArts{}
		for _, binary := range []string{"base", "exp"} {
			if k := (progKey{binary, in.Iters}); a.progs[k] == nil {
				a.progs[k] = &progArts{}
			}
		}
	}
	return &benchJob{c: c, o: o, arts: a}
}

// shareInputs points the jobs of one job set that share an input at one
// copy of its products before any of them runs: the TRAIN products per
// (workload, TRAIN input), and the REF products per (workload, REF
// input, Verify, Dispatch), the last two because they decide the golden
// run. Each input is then generated, and golden-run, once per job set.
func shareInputs(jobs []*benchJob) {
	trains := map[string]*trainArts{}
	inputs := map[string]*inputArts{}
	for _, j := range jobs {
		j.arts.train = shared(trains, engine.Key("train", j.c, j.o.TrainInput), j.arts.train)
		for i, in := range j.o.RefInputs {
			k := engine.Key("ref", j.c, in, j.o.Verify, j.o.Dispatch)
			j.arts.inputs[i] = shared(inputs, k, j.arts.inputs[i])
		}
	}
}

// shared returns the value memo holds under k, first storing v there if
// it holds none.
func shared[T any](memo map[string]T, k string, v T) T {
	if s, ok := memo[k]; ok {
		return s
	}
	memo[k] = v
	return v
}

// trainProducts builds (once) and returns the job's TRAIN products.
func (j *benchJob) trainProducts() *trainArts {
	t := j.arts.train
	t.once.Do(func() {
		prog, m := j.c.Generate(j.o.TrainInput)
		t.prog, t.im, t.mem = prog, ir.MustLinearize(prog), m.Clone()
	})
	return t
}

// artifacts builds (once) and returns the job's shared binaries.
func (j *benchJob) artifacts() (*jobArts, error) {
	a := j.arts
	a.once.Do(func() {
		t := j.trainProducts()
		base, exp, prof, rep, err := buildFrom(j.c, j.o, t.prog, t.im, t.mem.Clone())
		if err != nil {
			a.err = err
			return
		}
		a.baseIm, a.expIm = ir.MustLinearize(base), ir.MustLinearize(exp)
		a.prof, a.rep = prof, rep
		a.staticBase, a.staticExp = base.NumInstrs(), exp.NumInstrs()
	})
	return a, a.err
}

// program builds (once) and returns the predecoded binary patched to
// iters REF iterations.
func (j *benchJob) program(binary string, iters int64) (*pipeline.Program, error) {
	a, err := j.artifacts()
	if err != nil {
		return nil, err
	}
	pa := a.progs[progKey{binary, iters}]
	pa.once.Do(func() {
		im := a.baseIm
		if binary == "exp" {
			im = a.expIm
		}
		pa.prog = pipeline.Predecode(j.c.PatchIters(im, iters))
	})
	return pa.prog, nil
}

// input builds (once) and returns the shared per-input products.
func (j *benchJob) input(i int) (*inputArts, error) {
	ia := j.arts.inputs[i]
	ia.once.Do(func() {
		prog, m := j.c.Generate(j.o.RefInputs[i])
		ia.refMem = m.Clone() // sealed: simulations clone it concurrently
		if j.o.Verify {
			gold := ia.refMem.Clone()
			if _, _, err := interp.Run(ir.MustLinearize(prog), gold, interp.Options{Dispatch: j.o.Dispatch}); err != nil {
				ia.err = fmt.Errorf("%s: golden run: %w", j.c.Name, err)
				return
			}
			ia.gold = gold
		}
	})
	return ia, ia.err
}

// simKeyMaterial is everything that determines one simulation unit's
// Stats: the workload, the TRAIN input the binaries were built from, the
// REF input, the binary, the transform recipe, and the exact machine the
// unit runs (observers included). The predictor enters by name, since
// Config.NewPredictor has no encoding.
type simKeyMaterial struct {
	Config    workload.Config
	Train     workload.Input
	Input     workload.Input
	Binary    string
	Predictor string
	Core      core.Options
	Spec      core.SpeculateOptions
	Machine   pipeline.Config
}

// simKey derives the content key of one simulation unit running cfg. An
// anonymous predictor (NewPredictor set without PredictorName) makes the
// unit uncacheable.
func (j *benchJob) simKey(in workload.Input, binary string, cfg pipeline.Config) string {
	if j.o.NewPredictor != nil && j.o.PredictorName == "" {
		return ""
	}
	pred := j.o.PredictorName
	if pred == "" {
		pred = "default"
	}
	return engine.Key(harnessVersion, simKeyMaterial{
		Config: j.c, Train: j.o.TrainInput, Input: in, Binary: binary,
		Predictor: pred, Core: j.o.Core, Spec: j.o.Spec, Machine: cfg,
	})
}

// machineConfig builds the machine a simulation unit of this job runs at
// width: the options' machine, with the waterfall recorder on when the
// job is the benchmark under pipeview study.
func (j *benchJob) machineConfig(width int) pipeline.Config {
	o := &j.o
	cfg := pipeline.DefaultConfig(width)
	cfg.NewPredictor = o.predictor
	cfg.SampleWindow = o.SampleWindow
	cfg.Attr = o.Attr
	cfg.Probe = o.Probe
	cfg.Dispatch = o.Dispatch
	if o.DBBEntries > 0 {
		cfg.DBBEntries = o.DBBEntries
	}
	if o.ICacheBytes > 0 {
		// Shrink capacity at constant set count by dropping ways (the
		// natural way to cut 32KB 4-way to 24KB: 3 ways x 128 sets).
		def := cfg.Hier.L1I
		sets := def.SizeBytes / def.LineBytes / def.Ways
		cfg.Hier.L1I.SizeBytes = o.ICacheBytes
		cfg.Hier.L1I.Ways = o.ICacheBytes / def.LineBytes / sets
	}
	if o.PipeviewBench == j.c.Name {
		pv := pipeview.DefaultConfig()
		cfg.Pipeview = &pv
	}
	return cfg
}

// simulate executes one timing run of cfg over the shared Program and
// verifies it against the golden model.
func (j *benchJob) simulate(inputIdx int, binary string, cfg pipeline.Config) (*pipeline.Stats, error) {
	prog, err := j.program(binary, j.o.RefInputs[inputIdx].Iters)
	if err != nil {
		return nil, err
	}
	ia, err := j.input(inputIdx)
	if err != nil {
		return nil, err
	}
	mach := prog.NewMachine(ia.refMem.Clone(), cfg)
	st, err := mach.Run()
	if err != nil {
		return nil, fmt.Errorf("%s/%s w%d: %w", j.c.Name, binary, cfg.Width, err)
	}
	if ia.gold != nil && !mach.Memory().Equal(ia.gold) {
		return nil, fmt.Errorf("%s/%s w%d: architectural state diverged from golden model", j.c.Name, binary, cfg.Width)
	}
	return st, nil
}

// units enumerates the job's engine units in deterministic order: the
// build unit first, then (input x width x {base, exp}) simulations. The
// build unit is uncacheable on purpose — the aggregated BenchResult needs
// the profile and transform report even when every simulation below is a
// cache hit.
func (j *benchJob) units(jobIdx int) []engine.Unit[*pipeline.Stats] {
	us := []engine.Unit[*pipeline.Stats]{{
		Label: fmt.Sprintf("%d/%s/build", jobIdx, j.c.Name),
		Run: func(context.Context) (*pipeline.Stats, error) {
			_, err := j.artifacts()
			return nil, err
		},
	}}
	for ii, in := range j.o.RefInputs {
		for _, w := range j.o.Widths {
			for _, binary := range []string{"base", "exp"} {
				cfg := j.machineConfig(w)
				us = append(us, engine.Unit[*pipeline.Stats]{
					Label: fmt.Sprintf("%d/%s/seed=%d,iters=%d/w%d/%s",
						jobIdx, j.c.Name, in.Seed, in.Iters, w, binary),
					Key: j.simKey(in, binary, cfg),
					Run: func(context.Context) (*pipeline.Stats, error) {
						return j.simulate(ii, binary, cfg)
					},
				})
			}
		}
	}
	return us
}

// runBenchJobs executes a (possibly heterogeneous) set of benchmark jobs
// as one engine job set and aggregates per-job BenchResults in
// enumeration order. Jobs that share an input share its products
// (shareInputs). The execution policy (Jobs, Cache, Recorder) comes
// from o (RunUnits); each job's own Options govern what it simulates.
func runBenchJobs(jobs []*benchJob, o Options) ([]*BenchResult, error) {
	shareInputs(jobs)
	var units []engine.Unit[*pipeline.Stats]
	first := make([]int, len(jobs)) // index of each job's first simulation unit
	for ji, j := range jobs {
		first[ji] = len(units) + 1 // skip the build unit
		units = append(units, j.units(ji)...)
	}
	results, _, err := RunUnits(o, units)
	if err != nil {
		return nil, err
	}
	ObserveResults(o.Monitor, results...)

	out := make([]*BenchResult, len(jobs))
	for ji, j := range jobs {
		a, err := j.artifacts()
		if err != nil {
			return nil, err
		}
		res := &BenchResult{
			Config: j.c, Profile: a.prof, Report: a.rep,
			StaticBase: a.staticBase, StaticExp: a.staticExp,
		}
		k := first[ji]
		for _, in := range j.o.RefInputs {
			ir2 := InputResult{Input: in}
			for _, w := range j.o.Widths {
				ir2.Runs = append(ir2.Runs, WidthRun{Width: w, Base: results[k], Exp: results[k+1]})
				k += 2
			}
			res.Inputs = append(res.Inputs, ir2)
		}
		out[ji] = res
	}
	return out, nil
}

// RunUnits runs units on the experiment engine under o's execution
// policy (Jobs, Cache) and books them in o.Recorder. Every engine run of
// the harness and the commands goes through it.
func RunUnits[T any](o Options, units []engine.Unit[T]) ([]T, engine.Stats, error) {
	return engine.Run(context.Background(), engine.Config{Jobs: o.Jobs, Cache: o.Cache, Recorder: o.Recorder}, units)
}

// ObserveResults feeds a result set's attribution slot totals and
// predictor studies to the monitor's /metrics. Callers pass the results
// after the engine returns, so cache hits count the same as fresh
// simulations. A nil monitor, a nil result (a build unit) or a missing
// section is skipped.
func ObserveResults(m *engine.Monitor, results ...*pipeline.Stats) {
	if m == nil {
		return
	}
	for _, st := range results {
		if st == nil {
			continue
		}
		if st.Attr != nil {
			m.ObserveAttr(st.Attr.Slots)
		}
		m.ObserveBpred(st.Bpred)
	}
}

// SuiteCache memoizes RunSuite results per suite name for one Options
// value — the in-process reuse layer the CLIs share (one `spec -all`
// renders several tables and figures from the same suites), while the
// on-disk run cache handles reuse across invocations.
type SuiteCache struct {
	o      Options
	mu     sync.Mutex
	suites map[string][]*BenchResult
}

// NewSuiteCache returns a suite memo over the given options.
func NewSuiteCache(o Options) *SuiteCache {
	return &SuiteCache{o: o, suites: map[string][]*BenchResult{}}
}

// Suite runs (or recalls) a whole suite.
func (sc *SuiteCache) Suite(name string) ([]*BenchResult, error) {
	sc.mu.Lock()
	rs, ok := sc.suites[name]
	sc.mu.Unlock()
	if ok {
		return rs, nil
	}
	rs, err := RunSuite(name, sc.o)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	sc.suites[name] = rs
	sc.mu.Unlock()
	return rs, nil
}
