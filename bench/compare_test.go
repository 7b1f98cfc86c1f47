package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareCanned compares two committed result files under a committed
// set of bounds.
func TestCompareCanned(t *testing.T) {
	a, err := readResults("testdata/compare-a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResults("testdata/compare-b.json")
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := readBounds("testdata/compare-spec.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"wall_s":     verdictWorse,      // +20% against a 10% bound
		"cpu_s":      verdictUnchanged,  // same median
		"setup_s":    verdictUnchanged,  // same median
		"alloc_mb":   verdictBetter,     // every B sample below every A sample
		"mallocs_k":  verdictUnresolved, // A's spread is 70%, the bound 5%
		"fail_ratio": verdictWorse,      // any increase
	}
	rows := compareResults(a, b, bounds)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d (workload only-in-a has no B side)", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Workload != "w1" || r.Verdict != want[r.Bound.Name] {
			t.Errorf("%s %s: %s (change %+.3f), want %s", r.Workload, r.Bound.Name, r.Verdict, r.Change, want[r.Bound.Name])
		}
	}

	var out bytes.Buffer
	code := runCompare("testdata/compare-spec.json", []string{"testdata/compare-a.json", "testdata/compare-b.json"}, &out)
	if code != 1 {
		t.Errorf("exit code %d with worse rows, want 1", code)
	}
	if n := strings.Count(out.String(), "\nw1 "); n != len(want) {
		t.Errorf("printed %d rows, want %d:\n%s", n, len(want), out.String())
	}
	if code := runCompare("testdata/compare-spec.json", []string{"testdata/compare-a.json", "testdata/compare-a.json"}, &out); code != 0 {
		t.Errorf("a file compared with itself: exit code %d", code)
	}
}

func TestVerdictDirection(t *testing.T) {
	higher := boundDef{Name: "sim_mips", Better: "higher", Bound: 0.1}
	a := summarize("M/s", []float64{10, 10, 10})
	if _, v := verdict(a, summarize("M/s", []float64{12, 12, 12}), higher); v != verdictBetter {
		t.Errorf("higher-is-better gain: %s", v)
	}
	if _, v := verdict(a, summarize("M/s", []float64{8, 8, 8}), higher); v != verdictWorse {
		t.Errorf("higher-is-better loss: %s", v)
	}
	if _, v := verdict(a, summarize("M/s", []float64{9.5, 9.5, 9.5}), higher); v != verdictUnchanged {
		t.Errorf("loss within the bound: %s", v)
	}
	if _, v := verdict(a, Summary{}, higher); v != verdictUnresolved {
		t.Errorf("missing side: %s", v)
	}
}

// TestCompareSets merges runs into sets whose samples are the run
// medians.
func TestCompareSets(t *testing.T) {
	a, err := readSide("testdata/compare-a.json,testdata/compare-b.json,testdata/compare-a.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 2 {
		t.Fatalf("%d workloads, want 2", len(a.Results))
	}
	w1 := a.Results[0]
	wall := w1.Metrics["wall_s"]
	if w1.Workload != "w1" || wall.N != 3 || wall.Median != 1.0 || wall.Q3 != 1.2 || w1.Correct || w1.Failed != 1 {
		t.Errorf("merged w1 = %+v, wall_s %+v", w1, wall)
	}
	var out bytes.Buffer
	if code := runCompare("testdata/compare-spec.json", []string{"testdata/compare-a.json,testdata/compare-a.json", "testdata/compare-a.json,testdata/compare-a.json"}, &out); code != 0 {
		t.Errorf("a set compared with itself: exit code %d\n%s", code, out.String())
	}
}
