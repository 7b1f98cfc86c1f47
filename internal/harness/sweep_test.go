package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vanguard/internal/engine"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// TestWriteSweepArtifacts drives the artifact fan-out: the JSON
// recording, the Chrome timeline, and the run-cache copy are all
// written, parse back, and satisfy the conservation invariant; with no
// artifact requested nothing is written, not even the run-cache copy.
func TestWriteSweepArtifacts(t *testing.T) {
	dir := t.TempDir()
	cache, err := engine.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	rec := engine.NewSweepRecorder()
	units := make([]engine.Unit[int], 4)
	for i := range units {
		i := i
		units[i] = engine.Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Key:   engine.Key(fmt.Sprintf("sweep-artifact-test-%d", i)),
			Run:   func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	cfg := engine.Config{Jobs: 2, Cache: cache, Recorder: rec}
	if _, _, err := engine.Run(context.Background(), cfg, units); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "sweep.json")
	chromePath := filepath.Join(dir, "sweep.trace")
	if err := WriteSweepArtifacts(rec, tracePath, chromePath, cache); err != nil {
		t.Fatal(err)
	}

	// Both JSON copies parse back and still satisfy Check.
	for _, p := range []string{tracePath, filepath.Join(cache.Dir(), SweepArtifactName)} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
		back, err := trace.ReadSweep(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := back.Check(); err != nil {
			t.Errorf("%s fails Check after round trip: %v", p, err)
		}
		if back.Units != 4 || back.CacheMisses != 4 {
			t.Errorf("%s round-tripped as %d units / %d misses, want 4 / 4", p, back.Units, back.CacheMisses)
		}
	}
	// The Chrome timeline parses as trace_event JSON.
	f, err := os.Open(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ParseChromeEvents(f)
	f.Close()
	if err != nil {
		t.Fatalf("chrome artifact does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Error("chrome artifact has no events")
	}

	// Nothing requested: no files.
	quiet, err := engine.Open(filepath.Join(dir, "quiet"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepArtifacts(rec, "", "", quiet); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(quiet.Dir(), SweepArtifactName)); !os.IsNotExist(err) {
		t.Error("a run with no sweep artifact requested wrote one beside the cache")
	}
}

// TestSweepGateConservation pins the engine ledger's conservation: an
// uncached end-to-end benchmark run with the flight recorder attached
// produces a recording that satisfies Check and reconciles span-for-span
// with the units the harness handed the engine.
func TestSweepGateConservation(t *testing.T) {
	c, ok := workload.ByName("h264ref")
	if !ok {
		t.Fatal("missing benchmark")
	}
	o := fastOptions()
	o.Jobs = 4
	rec := engine.NewSweepRecorder()
	o.Recorder = rec
	if _, err := RunBenchmark(c, o); err != nil {
		t.Fatal(err)
	}
	executed := len(newBenchJob(c, o).units(0))

	s := rec.Report()
	if err := s.Check(); err != nil {
		t.Fatalf("flight recording violates conservation: %v", err)
	}
	if s.Units != executed {
		t.Fatalf("recorder saw %d units, engine executed %d", s.Units, executed)
	}
	var unitSpans int
	for _, sp := range s.Spans {
		if sp.Phase == trace.SweepPhaseUnit {
			unitSpans++
			if sp.Outcome != trace.SweepRetire {
				t.Errorf("unit %d (%s) ended %q, want retire on a clean run", sp.Unit, sp.Label, sp.Outcome)
			}
		}
	}
	if unitSpans != executed {
		t.Fatalf("%d unit spans for %d executed units", unitSpans, executed)
	}
	// Uncached run: no probes recorded, everything computed.
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("uncached run recorded %d hits / %d misses", s.CacheHits, s.CacheMisses)
	}
	if s.UnitLatency == nil || s.UnitLatency.Count != int64(executed) {
		t.Errorf("latency histogram = %+v, want %d observations", s.UnitLatency, executed)
	}
	if s.WallUS <= 0 || s.Workers <= 0 {
		t.Errorf("degenerate recording: wall %d us, %d workers", s.WallUS, s.Workers)
	}
}
