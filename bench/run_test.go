package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for vgbench as the calibration
// child process that timedRun starts.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-calibrate" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// smokeWorkload is one fp2006 benchmark: a full timed or traced run of it
// takes about a second.
var smokeWorkload = &benchWorkload{name: "smoke", benches: []string{"gamess"}}

func TestTimedRunSmoke(t *testing.T) {
	res, err := timedRun(smokeWorkload, 1, 0.5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, d := range append(endToEnd, rawMetrics...) {
		if s, ok := res.Metrics[d.name]; !ok || s.N == 0 || s.Unit != d.unit {
			t.Errorf("%s: %+v", d.name, s)
		}
	}
	if s := res.Metrics["setup_s"]; s.N != setupReps || s.Median <= 0 {
		t.Errorf("setup_s: %+v", s)
	}
	if s := res.Metrics["calib_s"]; s.N != 2*res.Attempted+2 {
		t.Errorf("calib_s has %d samples for %d repetitions", s.N, res.Attempted)
	}
}

func TestTracedRunSmoke(t *testing.T) {
	out := t.TempDir()
	res, err := tracedRun(smokeWorkload, 1, t.TempDir(), out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
		t.Errorf("correct %v, %d of %d passes failed: %q", res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	for _, d := range layerMetrics {
		if _, ok := res.Layers[d.name]; !ok {
			t.Errorf("no %s", d.name)
		}
	}
	if res.Layers["pipeline.run_s"] <= 0 || res.Layers["sched.program_s"] <= 0 || res.Layers["engine.units"] != 5 {
		t.Errorf("layers: %v", res.Layers)
	}
	for _, f := range []string{"smoke.trace.json", "smoke.chrome.json", "smoke.cpu.pprof", "smoke.pprof-top.txt"} {
		if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
}
