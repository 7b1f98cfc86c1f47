package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// boundDef is one end-to-end metric of BENCHMARK.json: the direction
// that is better and the share of the baseline median by which the
// metric may get worse before a change counts as a regression.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// failRatioBound gates fail_ratio, which is not in BENCHMARK.json (a
// metric there must never read 0): any increase is a regression.
var failRatioBound = boundDef{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0}

// readBounds reads the end-to-end metrics of a BENCHMARK.json.
func readBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(spec.EndToEnd, failRatioBound), nil
}

func readResults(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readSide reads one side of a comparison: a result file, or a
// comma-separated list of them, one per run, merged by mergeRuns.
func readSide(arg string) (*ResultFile, error) {
	var runs []*ResultFile
	for _, path := range strings.Split(arg, ",") {
		f, err := readResults(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, f)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	return mergeRuns(runs), nil
}

// mergeRuns folds several runs into one result whose samples are the
// runs' medians, so that two sets of runs compare run against run.
func mergeRuns(runs []*ResultFile) *ResultFile {
	var out ResultFile
	byName := map[string]*Result{}
	medians := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, f := range runs {
		for _, r := range f.Results {
			m := byName[r.Workload]
			if m == nil {
				m = &Result{Workload: r.Workload, Correct: true, Metrics: map[string]Summary{}}
				byName[r.Workload] = m
				medians[r.Workload] = map[string][]float64{}
				out.Results = append(out.Results, m)
			}
			m.Correct = m.Correct && r.Correct
			m.Attempted += r.Attempted
			m.Failed += r.Failed
			for name, s := range r.Metrics {
				if s.N > 0 {
					medians[r.Workload][name] = append(medians[r.Workload][name], s.Median)
					units[name] = s.Unit
				}
			}
		}
	}
	for _, m := range out.Results {
		for name, xs := range medians[m.Workload] {
			m.Metrics[name] = summarize(units[name], xs)
		}
	}
	return &out
}

// compareRow is one workload x metric of a comparison of a baseline (A)
// with a change (B).
type compareRow struct {
	Workload string
	Bound    boundDef
	A, B     Summary
	// Change is B's median against A's, as a share of A's, signed so that
	// a positive value is worse.
	Change  float64
	Verdict string
}

// verdict applies a metric's bound to two summaries:
//   - unresolved when either side's spread (IQR over median) is wider
//     than the bound, unless every B sample is better than every A sample;
//   - worse when B's median is worse than A's by more than the bound;
//   - better when it is better by more than A's spread;
//   - unchanged otherwise.
func verdict(a, b Summary, d boundDef) (change float64, v string) {
	if a.N == 0 || b.N == 0 {
		return 0, verdictUnresolved
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	diff := sign * (b.Median - a.Median)
	switch {
	case a.Median != 0:
		change = diff / math.Abs(a.Median)
	case diff > 0:
		change = math.Inf(1)
	case diff < 0:
		change = math.Inf(-1)
	}
	if change < 0 && allBetter(a, b, sign) {
		return change, verdictBetter
	}
	if a.Spread() > d.Bound || b.Spread() > d.Bound {
		return change, verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return change, verdictWorse
	case -change > a.Spread():
		return change, verdictBetter
	}
	return change, verdictUnchanged
}

// allBetter reports whether every B sample beats every A sample; sign is
// +1 when lower is better.
func allBetter(a, b Summary, sign float64) bool {
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		return false
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, x := range b.Samples {
		worstB = max(worstB, sign*x)
	}
	for _, x := range a.Samples {
		bestA = min(bestA, sign*x)
	}
	return worstB < bestA
}

// compareResults joins two result files by workload and compares every
// end-to-end metric.
func compareResults(a, b *ResultFile, bounds []boundDef) []compareRow {
	var rows []compareRow
	for _, ra := range a.Results {
		var rb *Result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, d := range bounds {
			sa, sb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			change, v := verdict(sa, sb, d)
			rows = append(rows, compareRow{Workload: ra.Workload, Bound: d, A: sa, B: sb, Change: change, Verdict: v})
		}
	}
	return rows
}

func writeCompare(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-13s %-10s %-5s %30s %30s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	q := func(s Summary) string {
		if s.N == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-10s %-5s %30s %30s %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Bound.Name, r.Bound.Unit, q(r.A), q(r.B), 100*r.Change, 100*r.Bound.Bound, r.Verdict)
	}
}
