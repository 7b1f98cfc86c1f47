package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the code must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names the
// workloads and metrics the benchmark runs and prints, with their units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range spec.EndToEnd {
		if d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, code %s %s", i, d.Name, d.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	reported := reportedLayers()
	if len(spec.PerLayer) != len(reported) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(reported))
	}
	for i, d := range spec.PerLayer {
		if d.Name != reported[i].name || d.Unit != reported[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code %s %s", i, d.Name, d.Unit, reported[i].name, reported[i].unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("per_layer %s: better %q", d.Name, d.Better)
		}
	}
}

// TestLastLine checks the one-line summary carries exactly the metrics
// BENCHMARK.json lists, for a timed and a traced run.
func TestLastLine(t *testing.T) {
	spec := readSpec(t)
	timed := &Result{Correct: true, Attempted: 6, Metrics: map[string]Summary{}}
	for _, d := range append(endToEnd, rawMetrics...) {
		timed.Metrics[d.name] = summarize(d.unit, []float64{1.5, 2.5})
	}
	traced := &Result{Correct: true, Attempted: 3, Layers: map[string]float64{}}
	for _, d := range layerMetrics {
		traced.Layers[d.name] = 0.25
	}
	var e2e, per []string
	for _, d := range spec.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range spec.PerLayer {
		per = append(per, d.Name)
	}
	for _, c := range []struct {
		r      *Result
		traced bool
		want   []string
	}{{timed, false, e2e}, {traced, true, per}} {
		data, correct, err := lastLine([]*Result{c.r}, c.traced)
		if err != nil || !correct {
			t.Fatalf("lastLine: %v, correct %v", err, correct)
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range line.Metrics {
			got = append(got, k)
		}
		slices.Sort(got)
		want := slices.Clone(c.want)
		slices.Sort(want)
		if !slices.Equal(got, want) || line.Attempted != c.r.Attempted {
			t.Errorf("traced=%v: line %s, want metrics %v", c.traced, data, want)
		}
	}
}
