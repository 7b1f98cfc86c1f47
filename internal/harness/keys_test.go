package harness

import (
	"reflect"
	"testing"

	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

// mustBench resolves a benchmark by name or fails the test.
func mustBench(t *testing.T, name string) workload.Config {
	t.Helper()
	c, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	return c
}

// TestRunCacheKeyCoversOptions is the run-cache key audit: every field of
// harness.Options and pipeline.Config must be classified — either pure
// execution/observability policy that provably cannot change simulated
// Stats, or result-bearing material threaded into simKeyMaterial. A new
// field in either struct fails here until it is added to exactly one of
// the maps below, so a result-affecting option can never silently alias
// cache entries produced under a different value.
func TestRunCacheKeyCoversOptions(t *testing.T) {
	keyType := reflect.TypeOf(simKeyMaterial{})
	keyFields := map[string]bool{}
	for i := 0; i < keyType.NumField(); i++ {
		keyFields[keyType.Field(i).Name] = true
	}

	// optionsKey maps each result-bearing Options field to the
	// simKeyMaterial field that carries it. Widths/RefInputs fan out to
	// per-unit Width/Input values; NewPredictor is keyed through
	// PredictorName (anonymous predictors bypass the cache entirely —
	// TestAnonymousPredictorBypassesCache pins that).
	optionsKey := map[string]string{
		"Widths":        "Width",
		"TrainInput":    "Train",
		"RefInputs":     "Input",
		"NewPredictor":  "Predictor",
		"PredictorName": "Predictor",
		"ICacheBytes":   "ICacheBytes",
		"DBBEntries":    "DBBEntries",
		"Core":          "Core",
		"Spec":          "Spec",
		"SampleWindow":  "SampleWindow",
		"Attr":          "Attr",
		"Probe":         "Probe",
		"Dispatch":      "Dispatch",
		"PipeviewBench": "Pipeview",
	}
	// optionsPolicy lists the fields that steer execution or observation
	// but cannot change any simulated result: Verify only cross-checks,
	// Jobs/Cache/EngineStats are scheduling policy (the jobs differential
	// proves byte-identity), Monitor and Recorder only watch.
	optionsPolicy := map[string]bool{
		"Verify": true, "Jobs": true, "Cache": true, "EngineStats": true,
		"Monitor": true, "Recorder": true,
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		keyed, isKeyed := optionsKey[name]
		switch {
		case optionsPolicy[name] && isKeyed:
			t.Errorf("Options.%s is classified as both policy and key material", name)
		case optionsPolicy[name]:
		case !isKeyed:
			t.Errorf("Options.%s is unclassified: thread it into simKeyMaterial (and this test's optionsKey map) if it can change simulated results, or add it to optionsPolicy if it provably cannot", name)
		case !keyFields[keyed]:
			t.Errorf("Options.%s claims key field simKeyMaterial.%s, which does not exist", name, keyed)
		}
	}

	// configKey maps each pipeline.Config field the harness sets to its
	// key material; configFixed lists the fields machineConfig leaves at
	// DefaultConfig (no Options field can reach them, so they are covered
	// by harnessVersion — changing a default is a recipe change and must
	// bump it).
	configKey := map[string]string{
		"Width":        "Width",
		"Hier":         "ICacheBytes",
		"NewPredictor": "Predictor",
		"DBBEntries":   "DBBEntries",
		"SampleWindow": "SampleWindow",
		"Attr":         "Attr",
		"Probe":        "Probe",
		"Dispatch":     "Dispatch",
		"Pipeview":     "Pipeview",
	}
	configFixed := map[string]bool{
		"FrontEndDepth": true, "FetchBufEntries": true,
		"IntUnits": true, "MemUnits": true, "FPUnits": true,
		"BTBLogEntries": true, "RASEntries": true,
		"ExceptionEveryN": true, "DBBInvalidateOnException": true,
		"MaxInstrs": true, "MaxCycles": true,
	}
	ct := reflect.TypeOf(pipeline.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.PkgPath != "" {
			continue // unexported: the harness cannot set it
		}
		keyed, isKeyed := configKey[f.Name]
		switch {
		case configFixed[f.Name] && isKeyed:
			t.Errorf("pipeline.Config.%s is classified as both fixed and key material", f.Name)
		case configFixed[f.Name]:
		case !isKeyed:
			t.Errorf("pipeline.Config.%s is unclassified: map it to simKeyMaterial (and this test's configKey map) if machineConfig sets it, or add it to configFixed if the harness always leaves the default", f.Name)
		case !keyFields[keyed]:
			t.Errorf("pipeline.Config.%s claims key field simKeyMaterial.%s, which does not exist", f.Name, keyed)
		}
	}
}

// TestSimKeySeparatesProbe pins the aliasing contract the v6 bump exists
// for: identical simulations with and without the probe must produce
// different run-cache keys, and the key must change across every other
// key-material axis simKeyMaterial names.
func TestSimKeySeparatesProbe(t *testing.T) {
	o := fastOptions()
	j := newBenchJob(mustBench(t, "mcf"), o)
	base := j.simKey(o.RefInputs[0], 4, "base")
	if base == "" {
		t.Fatal("cacheable unit produced no key")
	}

	probed := o
	probed.Probe = true
	jp := newBenchJob(mustBench(t, "mcf"), probed)
	if k := jp.simKey(o.RefInputs[0], 4, "base"); k == base {
		t.Error("probed and plain simulations share a run-cache key")
	}
	if k := j.simKey(o.RefInputs[0], 2, "base"); k == base {
		t.Error("widths share a run-cache key")
	}
	if k := j.simKey(o.RefInputs[0], 4, "exp"); k == base {
		t.Error("binaries share a run-cache key")
	}
}
