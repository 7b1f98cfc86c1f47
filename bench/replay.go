package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/workload"
)

// The serial replay re-runs a workload's harness recipe by calling each
// layer's public functions directly, in the order the engine runs them
// at jobs=1, so that every call can carry a span. It must compute the
// same results as the harness: the traced run compares the replay's
// result digest with the harness digest, and per-layer numbers from a
// replay that disagrees would measure some other program.

// profileMaxInstrs is the profiling-run cap harness.BuildBinaries uses.
const profileMaxInstrs = 200_000_000

// replayJob is one (benchmark, options) experiment: the harness's
// benchJob, with the products its build unit shares.
type replayJob struct {
	c        workload.Config
	o        harness.Options
	predName string // ladder rung; "" for the default predictor
	label    string

	prof                  *profile.Profile
	rep                   *core.Report
	baseIm, expIm         *ir.Image
	staticBase, staticExp int
	inputs                []*replayInput
	results               map[string]*pipeline.Stats // by simLabel
}

// replayInput is one REF input's memory image and its golden result.
type replayInput struct {
	ref, gold *mem.Memory
}

func (j *replayJob) predictor() bpred.DirPredictor {
	if j.o.NewPredictor != nil {
		return j.o.NewPredictor()
	}
	return bpred.NewDefault()
}

func (j *replayJob) simLabel(in workload.Input, width int, binary string) string {
	return fmt.Sprintf("%s/seed=%d,iters=%d/w%d/%s", j.label, in.Seed, in.Iters, width, binary)
}

// replayJobs expands a workload into jobs exactly as RunBenchmarks and
// Sensitivity do.
func (w *benchWorkload) replayJobs(o harness.Options) ([]*replayJob, error) {
	cs, err := w.configs()
	if err != nil {
		return nil, err
	}
	var jobs []*replayJob
	add := func(c workload.Config, o harness.Options, pred string) {
		jobs = append(jobs, &replayJob{
			c: c, o: o, predName: pred,
			label:   fmt.Sprintf("%d/%s", len(jobs), c.Name),
			inputs:  make([]*replayInput, len(o.RefInputs)),
			results: map[string]*pipeline.Stats{},
		})
	}
	for _, c := range cs {
		if !w.ladder {
			add(c, o, "")
			continue
		}
		for _, spec := range bpred.LadderSpecs() {
			jo := o
			jo.Widths = []int{4}
			jo.NewPredictor = spec.New
			jo.PredictorName = spec.Name
			add(c, jo, spec.Name)
		}
	}
	return jobs, nil
}

// replayCounts are the work counts the replay observed. Simulation
// statistics count every simulation the experiment delivered, computed or
// read from the run cache; the computed* fields count only the ones
// simulated.
type replayCounts struct {
	profDynInstrs   int64
	converted       int
	schedInstrs     int
	maxBlockInstrs  int
	goldenInstrs    int64
	sims            int
	committed       int64
	cycles          int64
	mispredicts     int64
	icacheMisses    int64
	l1dMissRateSum  float64
	computedSims    int
	computedCommits int64
	computedCycles  int64
	entryBytes      int64
	entries         int
}

type replayer struct {
	tr    *tracer
	cache *engine.Cache
	n     replayCounts
}

// replay runs the workload's recipe once against cache and returns the
// result digest, computed the way workload.experiment computes the
// harness's.
func (r *replayer) replay(w *benchWorkload, o harness.Options) (string, error) {
	jobs, err := w.replayJobs(o)
	if err != nil {
		return "", err
	}
	root := r.tr.begin("replay", -1)
	defer r.tr.end(root)

	// At jobs=1 the engine runs every build unit first; the simulations
	// follow in lane groups of one (job, width, binary), inputs in order.
	for _, j := range jobs {
		if err := r.build(j); err != nil {
			return "", err
		}
	}
	for _, j := range jobs {
		for _, width := range j.o.Widths {
			for _, binary := range []string{"base", "exp"} {
				for ii := range j.o.RefInputs {
					if err := r.sim(j, ii, width, binary); err != nil {
						return "", err
					}
				}
			}
		}
	}

	sp := r.tr.begin("harness.report", -1)
	defer r.tr.end(sp)
	h := sha256.New()
	if w.ladder {
		harness.WriteSensitivity(h, sensitivityRows(jobs))
	} else if err := harness.WriteJSON(h, tool, benchResults(jobs)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// build is the job's build unit: harness.BuildBinaries plus the
// linearization the engine applies to its two programs.
func (r *replayer) build(j *replayJob) error {
	unit := r.tr.unit(j.label + "/build")
	g := r.tr.begin("build", unit)
	defer r.tr.end(g)

	s := r.tr.begin("workload.generate", unit)
	trainProg, trainMem := j.c.Generate(j.o.TrainInput)
	r.tr.end(s)
	s = r.tr.begin("ir.linearize", unit)
	im := ir.MustLinearize(trainProg)
	r.tr.end(s)
	var err error
	s = r.tr.begin("profile.collect", unit)
	j.prof, err = profile.Collect(im, trainMem, j.predictor(), profileMaxInstrs)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: profile: %w", j.c.Name, err)
	}
	r.n.profDynInstrs += j.prof.DynInstrs

	s = r.tr.begin("ir.clone", unit)
	base := trainProg.Clone()
	r.tr.end(s)
	s = r.tr.begin("core.speculate", unit)
	_, err = core.SpeculateBiasedBranches(base, j.prof, j.o.Spec)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: baseline speculation: %w", j.c.Name, err)
	}
	s = r.tr.begin("ir.clone", unit)
	exp := base.Clone()
	r.tr.end(s)
	s = r.tr.begin("core.transform", unit)
	j.rep, err = core.Transform(exp, j.prof, j.o.Core)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: transform: %w", j.c.Name, err)
	}
	r.n.converted += len(j.rep.Converted)

	model := sched.DefaultModel(4)
	for _, p := range []*ir.Program{base, exp} {
		s = r.tr.begin("sched.program", unit)
		sched.Program(p, model)
		r.tr.end(s)
		r.n.schedInstrs += p.NumInstrs()
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				r.n.maxBlockInstrs = max(r.n.maxBlockInstrs, len(b.Instrs))
			}
		}
	}

	s = r.tr.begin("ir.linearize", unit)
	j.baseIm = ir.MustLinearize(base)
	r.tr.end(s)
	s = r.tr.begin("ir.linearize", unit)
	j.expIm = ir.MustLinearize(exp)
	r.tr.end(s)
	j.staticBase, j.staticExp = base.NumInstrs(), exp.NumInstrs()
	return nil
}

// input builds (once) a REF input's memory image and, since the options
// verify, its golden architectural result.
func (r *replayer) input(j *replayJob, ii, unit int) (*replayInput, error) {
	if j.inputs[ii] != nil {
		return j.inputs[ii], nil
	}
	g := r.tr.begin("input", unit)
	defer r.tr.end(g)
	in := j.o.RefInputs[ii]
	ia := &replayInput{}
	s := r.tr.begin("workload.generate", unit)
	_, ia.ref = j.c.Generate(in)
	r.tr.end(s)
	if j.o.Verify {
		s = r.tr.begin("workload.generate", unit)
		goldProg, goldMem := j.c.Generate(in)
		r.tr.end(s)
		s = r.tr.begin("ir.linearize", unit)
		goldIm := ir.MustLinearize(goldProg)
		r.tr.end(s)
		s = r.tr.begin("interp.golden", unit)
		_, st, err := interp.Run(goldIm, goldMem, interp.Options{Dispatch: j.o.Dispatch})
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: golden run: %w", j.c.Name, err)
		}
		r.n.goldenInstrs += st.Instrs
		ia.gold = goldMem
	}
	j.inputs[ii] = ia
	return ia, nil
}

// sim is one simulation unit: the engine's cache probe, and on a miss the
// simulation, its golden check and the cache write.
func (r *replayer) sim(j *replayJob, ii, width int, binary string) error {
	in := j.o.RefInputs[ii]
	label := j.simLabel(in, width, binary)
	unit := r.tr.unit(label)
	g := r.tr.begin("sim", unit)
	defer r.tr.end(g)

	s := r.tr.begin("engine.key", unit)
	key := engine.Key("vgbench-replay", label, j.predName)
	r.tr.end(s)
	s = r.tr.begin("engine.get", unit)
	data, ok := r.cache.Get(key)
	r.tr.end(s)
	if ok {
		var st *pipeline.Stats
		s = r.tr.begin("engine.decode", unit)
		err := json.Unmarshal(data, &st)
		r.tr.end(s)
		if err == nil {
			r.n.entryBytes += int64(len(data))
			r.n.entries++
			r.deliver(j, label, st)
			return nil
		}
	}

	ia, err := r.input(j, ii, unit)
	if err != nil {
		return err
	}
	src := j.baseIm
	if binary == "exp" {
		src = j.expIm
	}
	cfg := pipeline.DefaultConfig(width)
	cfg.NewPredictor = j.predictor
	cfg.Dispatch = j.o.Dispatch

	s = r.tr.begin("workload.patch", unit)
	im := j.c.PatchIters(src, in.Iters)
	r.tr.end(s)
	s = r.tr.begin("mem.clone", unit)
	m := ia.ref.Clone()
	r.tr.end(s)
	s = r.tr.begin("pipeline.new", unit)
	mach := pipeline.New(im, m, cfg)
	r.tr.end(s)
	s = r.tr.begin("pipeline.run", unit)
	st, err := mach.Run()
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	if ia.gold != nil {
		s = r.tr.begin("mem.verify", unit)
		same := mach.Memory().Equal(ia.gold)
		r.tr.end(s)
		if !same {
			return fmt.Errorf("%s: architectural state diverged from golden model", label)
		}
	}
	r.n.computedSims++
	r.n.computedCommits += st.Committed
	r.n.computedCycles += st.Cycles

	s = r.tr.begin("engine.encode", unit)
	data, err = json.Marshal(st)
	r.tr.end(s)
	if err == nil {
		s = r.tr.begin("engine.put", unit)
		r.cache.Put(key, data)
		r.tr.end(s)
		r.n.entryBytes += int64(len(data))
		r.n.entries++
	}
	r.deliver(j, label, st)
	return nil
}

// deliver records a simulation's result, computed or read from the cache.
func (r *replayer) deliver(j *replayJob, label string, st *pipeline.Stats) {
	j.results[label] = st
	r.n.sims++
	r.n.committed += st.Committed
	r.n.cycles += st.Cycles
	r.n.mispredicts += st.BrMispredicts + st.ResMispredicts + st.RetMispredicts
	r.n.icacheMisses += st.ICacheMisses
	r.n.l1dMissRateSum += st.L1DMissRate
}

// benchResults aggregates the jobs the way the harness does.
func benchResults(jobs []*replayJob) []*harness.BenchResult {
	out := make([]*harness.BenchResult, len(jobs))
	for k, j := range jobs {
		res := &harness.BenchResult{
			Config: j.c, Profile: j.prof, Report: j.rep,
			StaticBase: j.staticBase, StaticExp: j.staticExp,
		}
		for _, in := range j.o.RefInputs {
			inRes := harness.InputResult{Input: in}
			for _, w := range j.o.Widths {
				inRes.Runs = append(inRes.Runs, harness.WidthRun{
					Width: w,
					Base:  j.results[j.simLabel(in, w, "base")],
					Exp:   j.results[j.simLabel(in, w, "exp")],
				})
			}
			res.Inputs = append(res.Inputs, inRes)
		}
		out[k] = res
	}
	return out
}

// sensitivityRows builds the Section 5.3 rows the way harness.Sensitivity
// does: baseline MPKI of the first width-4 run, speedup over all inputs.
func sensitivityRows(jobs []*replayJob) []harness.SensitivityRow {
	var rows []harness.SensitivityRow
	for k, r := range benchResults(jobs) {
		row := harness.SensitivityRow{
			Benchmark:  jobs[k].c.Name,
			Predictor:  jobs[k].predName,
			SpeedupPct: r.SpeedupAllRefsPct(4),
		}
	find:
		for _, in := range r.Inputs {
			for _, wr := range in.Runs {
				if wr.Width == 4 {
					row.MPKI = wr.Base.MPKI()
					break find
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}
