package harness

import (
	"reflect"
	"testing"

	"vanguard/internal/exec"
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

// TestRunCacheKeyCoversOptions is the Options half of the run-cache key
// audit: every field of harness.Options must be classified — either pure
// execution/observability policy that provably cannot change simulated
// Stats, or result-bearing material that reaches a simKeyMaterial field.
// A new field fails here until it is added to exactly one of the maps
// below. The machine half is TestSimKeyCoversMachine.
func TestRunCacheKeyCoversOptions(t *testing.T) {
	keyType := reflect.TypeOf(simKeyMaterial{})
	keyFields := map[string]bool{}
	for i := 0; i < keyType.NumField(); i++ {
		name := keyType.Field(i).Name
		keyFields[name] = true
		if _, ok := reflect.TypeOf(pipeline.Config{}).FieldByName(name); ok {
			t.Errorf("simKeyMaterial.%s mirrors pipeline.Config.%s: key it through Machine", name, name)
		}
	}

	// optionsKey maps each result-bearing Options field to the
	// simKeyMaterial field that carries it. Fields machineConfig reads
	// reach the key through the resolved Machine; Widths and RefInputs fan
	// out to per-unit machines and inputs; NewPredictor is keyed through
	// PredictorName (anonymous predictors bypass the cache entirely —
	// TestAnonymousPredictorBypassesCache pins that).
	optionsKey := map[string]string{
		"Widths":        "Machine",
		"TrainInput":    "Train",
		"RefInputs":     "Input",
		"NewPredictor":  "Predictor",
		"PredictorName": "Predictor",
		"ICacheBytes":   "Machine",
		"DBBEntries":    "Machine",
		"Core":          "Core",
		"Spec":          "Spec",
		"SampleWindow":  "Machine",
		"Attr":          "Machine",
		"Probe":         "Machine",
		"Dispatch":      "Machine",
		"PipeviewBench": "Machine",
	}
	// optionsPolicy lists the fields that steer execution or observation
	// but cannot change any simulated result: Verify only cross-checks,
	// Jobs/Cache are scheduling policy (the jobs differential proves
	// byte-identity), Monitor and Recorder only watch.
	optionsPolicy := map[string]bool{
		"Verify": true, "Jobs": true, "Cache": true,
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
			t.Errorf("Options.%s is unclassified: make it reach simKeyMaterial (and this test's optionsKey map) if it can change simulated results, or add it to optionsPolicy if it provably cannot", name)
		case !keyFields[keyed]:
			t.Errorf("Options.%s claims key field simKeyMaterial.%s, which does not exist", name, keyed)
		}
	}
}

// TestSimKeySeparatesProbe pins that every machine-bound option reaches
// the key through the machine it resolves to: identical simulations that
// differ in one such option (the predictor probe among them), in width or
// in binary must produce different run-cache keys.
func TestSimKeySeparatesProbe(t *testing.T) {
	c := mustBench(t, "mcf")
	key := func(o Options, width int, binary string) string {
		j := newBenchJob(c, o)
		return j.simKey(o.RefInputs[0], binary, j.machineConfig(width))
	}
	o := fastOptions()
	base := key(o, 4, "base")
	if base == "" {
		t.Fatal("cacheable unit produced no key")
	}
	for name, set := range map[string]func(*Options){
		"Probe":         func(o *Options) { o.Probe = true },
		"Attr":          func(o *Options) { o.Attr = true },
		"SampleWindow":  func(o *Options) { o.SampleWindow = 1000 },
		"DBBEntries":    func(o *Options) { o.DBBEntries = 8 },
		"ICacheBytes":   func(o *Options) { o.ICacheBytes = 24 << 10 },
		"Dispatch":      func(o *Options) { o.Dispatch = exec.DispatchSwitch },
		"PipeviewBench": func(o *Options) { o.PipeviewBench = c.Name },
	} {
		p := o
		set(&p)
		if key(p, 4, "base") == base {
			t.Errorf("Options.%s set and unset share a run-cache key", name)
		}
	}
	if key(o, 2, "base") == base {
		t.Error("widths share a run-cache key")
	}
	if key(o, 4, "exp") == base {
		t.Error("binaries share a run-cache key")
	}
}

// TestSimKeyCoversMachine is the machine half of the run-cache key audit:
// changing any exported pipeline.Config field a unit runs — every Hier
// leaf and every Pipeview field included — must change its key. Only
// NewPredictor is exempt; it has no encoding and is keyed by name.
func TestSimKeyCoversMachine(t *testing.T) {
	o := fastOptions()
	o.PipeviewBench = "mcf" // a set Pipeview, so its fields are perturbed too
	j := newBenchJob(mustBench(t, "mcf"), o)
	in := o.RefInputs[0]
	cfg := j.machineConfig(4)
	base := j.simKey(in, "base", cfg)
	leaves := 0
	perturbLeaves(t, reflect.ValueOf(&cfg).Elem(), "pipeline.Config", func(path string) {
		leaves++
		if j.simKey(in, "base", cfg) == base {
			t.Errorf("%s does not reach the run-cache key", path)
		}
	})
	t.Logf("%d machine leaves perturbed", leaves)
}

// perturbLeaves changes each leaf of v in turn, calls moved with the
// leaf's path while the change is in place, and restores it. A pointer
// counts as a leaf (set to nil) and is recursed into. A kind it cannot
// change fails the test, so a new Config field type is audited rather
// than skipped.
func perturbLeaves(t *testing.T, v reflect.Value, path string, moved func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || path+"."+f.Name == "pipeline.Config.NewPredictor" {
				continue
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, moved)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil: start from a set pointer so its fields are perturbed", path)
		}
		p := v.Interface()
		v.Set(reflect.Zero(v.Type()))
		moved(path + " (nil)")
		v.Set(reflect.ValueOf(p))
		perturbLeaves(t, v.Elem(), path, moved)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		moved(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		moved(path)
		v.SetUint(old)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		moved(path)
		v.SetBool(!v.Bool())
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		moved(path)
		v.SetString(old)
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach perturbLeaves it", path, v.Kind())
	}
}
