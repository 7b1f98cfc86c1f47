package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"vanguard/internal/harness"
	"vanguard/internal/workload"
)

// tool names the reports the experiments render; it is part of every
// result digest.
const tool = "vgbench"

// A benchWorkload is one experiment the benchmark runs, closed loop at
// jobs=1: the next experiment starts when the previous one returns.
// BENCHMARK.json and README.md give the reason for each.
//
// The experiments are the repository's own harness entry points on the
// -fast inputs (harness.FastOptions seeds), cut down so that a timed run
// of about twenty seconds holds a warm-up and several repetitions on a
// two-core host: width 4 only, half the TRAIN and REF iteration counts,
// and without the benchmarks whose size alone would fill a run.
type benchWorkload struct {
	name string
	// benches names the benchmarks the experiment measures.
	benches []string
	// ladder runs harness.Sensitivity over benches instead of
	// harness.RunBenchmarks.
	ladder bool
	// warm runs every timed repetition against one run cache filled
	// during setup; the other workloads give each repetition a fresh one.
	warm bool
}

// int2006Subset is the int2006 suite without its three largest images
// (gcc, xalancbmk, perlbench), which take about 13 s of the whole
// suite's 21 s per -fast experiment on a two-core host. gobmk keeps a
// replicated image in the set, so scheduling still costs about a third
// of a cold experiment.
func int2006Subset() []string {
	var out []string
	for _, c := range workload.Int2006() {
		switch c.Name {
		case "gcc", "xalancbmk", "perlbench":
		default:
			out = append(out, c.Name)
		}
	}
	return out
}

func suiteNames(suite string) []string {
	var out []string
	for _, c := range workload.Suite(suite) {
		out = append(out, c.Name)
	}
	return out
}

var workloads = []*benchWorkload{
	{name: "int2006-cold", benches: int2006Subset()},
	{name: "int2006-warm", benches: int2006Subset(), warm: true},
	{name: "fp2006-cold", benches: suiteNames("fp2006")},
	// gobmk is left out of the ladder: re-scheduling its replicated image
	// under each of the six predictors costs twice what the other three
	// benchmarks cost together, and would make the workload a
	// second sched workload instead of the bpred one.
	{name: "ladder", benches: []string{"astar", "sjeng", "mcf"}, ladder: true},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// options returns the experiment options for a seed. Seed 0 uses exactly
// the harness.FastOptions seeds; any other seed offsets every input seed
// by seed*1000, which gives inputs no result in the repository was tuned
// on. Iteration counts are half of FastOptions' and the only width is 4.
func (w *benchWorkload) options(seed int64) harness.Options {
	o := harness.FastOptions()
	o.Jobs = 1
	o.Widths = []int{4}
	shift := func(in workload.Input) workload.Input {
		return workload.Input{Seed: in.Seed + seed*1000, Iters: in.Iters / 2}
	}
	o.TrainInput = shift(o.TrainInput)
	refs := o.RefInputs
	if w.ladder {
		// The ladder runs the first REF input only.
		refs = refs[:1]
	}
	o.RefInputs = nil
	for _, in := range refs {
		o.RefInputs = append(o.RefInputs, shift(in))
	}
	return o
}

// configs resolves the workload's benchmark names.
func (w *benchWorkload) configs() ([]workload.Config, error) {
	var cs []workload.Config
	for _, name := range w.benches {
		c, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// experiment runs the workload's harness call once under o and returns
// the sha256 of its rendered result: harness.WriteJSON for the suites,
// harness.WriteSensitivity for the ladder.
func (w *benchWorkload) experiment(o harness.Options) (string, error) {
	h := sha256.New()
	if w.ladder {
		rows, err := harness.Sensitivity(w.benches, o)
		if err != nil {
			return "", err
		}
		harness.WriteSensitivity(h, rows)
	} else {
		cs, err := w.configs()
		if err != nil {
			return "", err
		}
		rs, err := harness.RunBenchmarks(cs, o)
		if err != nil {
			return "", err
		}
		if err := harness.WriteJSON(h, tool, rs); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// inputStats describes the inputs a setup generated.
type inputStats struct {
	Benchmarks   int   `json:"benchmarks"`
	Inputs       int   `json:"inputs"`
	StaticInstrs int   `json:"static_instrs"`
	MaxWSBytes   int64 `json:"max_working_set_bytes"`
}

// generateInputs generates every program and memory image the
// experiment will run (the TRAIN and each REF input of each benchmark;
// Generate verifies each program) and describes them. It is the
// input-preparation half of a workload's setup.
func (w *benchWorkload) generateInputs(o harness.Options) (inputStats, error) {
	cs, err := w.configs()
	if err != nil {
		return inputStats{}, err
	}
	st := inputStats{Benchmarks: len(cs)}
	for _, c := range cs {
		for _, in := range append([]workload.Input{o.TrainInput}, o.RefInputs...) {
			p, _ := c.Generate(in)
			st.Inputs++
			st.StaticInstrs += p.NumInstrs()
		}
		st.MaxWSBytes = max(st.MaxWSBytes, c.WSBytes)
	}
	return st, nil
}

// countFailures applies the correctness rule to the result digests of a
// run's repetitions, where "" marks a repetition that returned an error.
// At seed 0 each digest must equal the committed expected one; at any
// other seed each must equal the first repetition's.
func countFailures(digests []string, expected string, seed int64) int {
	want := expected
	if seed != 0 && len(digests) > 0 {
		want = digests[0]
	}
	failed := 0
	for _, d := range digests {
		if d == "" || d != want {
			failed++
		}
	}
	return failed
}
