// Command vgbench is the repository's end-to-end benchmark: it times the
// paper's experiments the way a user runs them (closed loop, jobs=1),
// checks every result against a committed digest, and in a separate
// traced run measures where the time goes layer by layer. README.md
// describes the workloads, the metrics and their bounds.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload int2006-cold --seed 0 --seconds 20 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh -compare A.result.json B.result.json
//
// Results go to .bench_build/bench/<workload>.result.json (timed) or
// <workload>.layers.json (traced), beside the traced run's span files.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics with their units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Result is one workload's run: a timed run (Metrics) or a traced run
// (Layers and the tables behind them).
type Result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Digest      string             `json:"digest"`
	Expected    string             `json:"expected,omitempty"`
	Inputs      inputStats         `json:"inputs"`
	Metrics     map[string]Summary `json:"metrics,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
	SelfTimes   []layerTime        `json:"self_times,omitempty"`
	Coverage    float64            `json:"span_coverage,omitempty"`
	// BookkeepingS is the traced replay's time in its own MemStats reads.
	BookkeepingS float64  `json:"tracer_bookkeeping_s,omitempty"`
	Errors       []string `json:"errors,omitempty"` // why a traced run's passes failed
	Host         host     `json:"host"`
}

// ResultFile is what a run writes and -compare reads.
type ResultFile struct {
	Results []*Result `json:"results"`
}

// host records where a result was measured.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newResult(w *benchWorkload, seed int64) *Result {
	r := &Result{
		Workload: w.name, Seed: seed,
		Host: host{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	if seed == 0 {
		r.Expected = expectedDigest(w.name)
	}
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vgbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Int64("seed", 0, "input seed: 0 uses the -fast seeds, N offsets every seed by N*1000")
		seconds = fs.Float64("seconds", 20, "how long the timed repetitions of one workload run")
		traced  = fs.Int("trace", 0, "1 makes the traced run (per-layer metrics) instead of the timed one")
		out     = fs.String("out", filepath.Join(".bench_build", "bench"), "directory for result, trace and working files")
		compare = fs.Bool("compare", false, "compare two result files (or two comma-separated sets of them), given as arguments, using the bounds in ./BENCHMARK.json")
		calib   = fs.Bool("calibrate", false, "run the calibration kernel once and print its time (timed runs run this as a child process)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calib {
		fmt.Fprintln(stdout, kernel())
		return 0
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout)
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}

	var ws []*benchWorkload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ws = []*benchWorkload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	kind, suffix := "timed", "result"
	if *traced == 1 {
		kind, suffix = "traced", "layers"
	}
	var file ResultFile
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "%s: seed %d, %s run\n", w.name, *seed, kind)
		var res *Result
		if *traced == 1 {
			res, err = tracedRun(w, *seed, dir, *out)
		} else {
			res, err = timedRun(w, *seed, *seconds, dir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		writeTable(stdout, res)
		file.Results = append(file.Results, res)
	}

	path := filepath.Join(*out, fmt.Sprintf("%s.%s.json", *name, suffix))
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)

	line, correct, err := lastLine(file.Results, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// lastLine renders the run's one-line JSON summary: with several
// workloads, metric names take a "<workload>/" prefix.
func lastLine(rs []*Result, traced bool) ([]byte, bool, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.Workload + "/"
		}
		if traced {
			for _, d := range reportedLayers() {
				line.Metrics[prefix+d.name] = metric{r.Layers[d.name], d.unit}
			}
			continue
		}
		for _, d := range endToEnd {
			if s := r.Metrics[d.name]; s.N > 0 {
				line.Metrics[prefix+d.name] = metric{s.Median, d.unit}
			}
		}
	}
	data, err := json.Marshal(line)
	return data, line.Correct, err
}

// runCompare compares two sides, each a result file or a comma-separated
// list of them, under the end-to-end bounds of the BENCHMARK.json at
// spec; it fails when any row is worse.
func runCompare(spec string, args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: vgbench -compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	bounds, err := readBounds(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	a, err := readSide(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := readSide(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rows := compareResults(a, b, bounds)
	writeCompare(stdout, rows)
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			return 1
		}
	}
	return 0
}

// writeTable prints one workload's result for a reader.
func writeTable(w io.Writer, r *Result) {
	status := "digest ok"
	if !r.Correct {
		status = fmt.Sprintf("FAILED %d of %d", r.Failed, r.Attempted)
	}
	fmt.Fprintf(w, "%s  seed %d  %d attempted  %s  (%s)\n", r.Workload, r.Seed, r.Attempted, status, r.Digest)
	if !r.Trace {
		fmt.Fprintf(w, "  %-10s %-5s %12s %12s %12s %4s %7s\n", "metric", "unit", "median", "q1", "q3", "n", "spread")
		for _, d := range append(endToEnd, rawMetrics...) {
			s := r.Metrics[d.name]
			fmt.Fprintf(w, "  %-10s %-5s %12.6g %12.6g %12.6g %4d %6.1f%%\n", d.name, d.unit, s.Median, s.Q1, s.Q3, s.N, 100*s.Spread())
		}
		return
	}
	fmt.Fprintf(w, "  span coverage %.1f%% (tracer bookkeeping %.3fs); largest self times:\n", 100*r.Coverage, r.BookkeepingS)
	for i, lt := range r.SelfTimes {
		if i == 8 {
			break
		}
		fmt.Fprintf(w, "    %-18s %9.4fs %6d calls %9d mallocs\n", lt.Name, lt.SelfS, lt.Calls, lt.Mallocs)
	}
	for _, d := range layerMetrics {
		fmt.Fprintf(w, "  %-24s %-6s %14.6g\n", d.name, d.unit, r.Layers[d.name])
	}
}
