package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"vanguard/internal/trace"
)

// recUnits builds n deterministic cacheable units.
func recUnits(n int) []Unit[int] {
	units := make([]Unit[int], n)
	for i := range units {
		units[i] = Unit[int]{
			Label: fmt.Sprintf("unit-%d", i),
			Key:   Key(fmt.Sprintf("recorder-test-%d", i)),
			Run:   func(ctx context.Context) (int, error) { return i * i, nil },
		}
	}
	return units
}

// TestRecorderLifecycle drives the full span model through a real Run —
// cold misses, then a warm rerun for hits on the same recorder — and
// holds the recording to the conservation
// invariant plus the structural properties Report promises.
func TestRecorderLifecycle(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewSweepRecorder()
	units := recUnits(9)
	cfg := Config{Jobs: 2, Cache: cache, Recorder: rec}
	if _, _, err := Run(context.Background(), cfg, units); err != nil {
		t.Fatal(err)
	}
	// Warm rerun on the same recorder: every unit is a cache hit now.
	if _, _, err := Run(context.Background(), cfg, units); err != nil {
		t.Fatal(err)
	}

	s := rec.Report()
	if err := s.Check(); err != nil {
		t.Fatalf("recording violates conservation: %v", err)
	}
	if s.Units != 18 {
		t.Fatalf("recorded %d units, want 18 across both runs", s.Units)
	}
	if s.CacheHits != 9 || s.CacheMisses != 9 {
		t.Errorf("probes = %d hits / %d misses, want 9 / 9", s.CacheHits, s.CacheMisses)
	}
	if s.Failed != 0 || s.Cancelled != 0 {
		t.Errorf("failed/cancelled = %d/%d, want 0/0", s.Failed, s.Cancelled)
	}
	if s.Workers != 2 {
		t.Errorf("workers = %d, want 2", s.Workers)
	}
	// The engine section is a view of the same records.
	if e := rec.EngineReport(); e.Units != 18 || len(e.UnitWall) != 18 || e.CacheHits != 9 ||
		e.CacheMisses != 9 || e.Jobs != 2 || e.WallMS <= 0 || e.WallMS > float64(s.WallUS)/1000+1 {
		t.Errorf("engine report %+v disagrees with the recording (%d units, wall %d us)", e, s.Units, s.WallUS)
	}

	// Spans come out in unit enumeration order with a fixed per-unit
	// phase order, so the recording is deterministic modulo wall times.
	lastUnit := -1
	for _, sp := range s.Spans {
		if sp.Unit < lastUnit {
			t.Fatalf("span ordering regressed: unit %d after unit %d", sp.Unit, lastUnit)
		}
		lastUnit = sp.Unit
	}
	var unitSpans, computeSpans int
	for _, sp := range s.Spans {
		switch sp.Phase {
		case trace.SweepPhaseUnit:
			unitSpans++
			if sp.Key == "" {
				t.Errorf("unit span %d lost its run-cache key", sp.Unit)
			}
			if sp.Outcome != trace.SweepRetire {
				t.Errorf("unit span %d outcome %q, want retire", sp.Unit, sp.Outcome)
			}
		case trace.SweepPhaseQueue:
			if sp.Worker != -1 {
				t.Errorf("queue span %d on worker %d, want -1", sp.Unit, sp.Worker)
			}
		case trace.SweepPhaseCompute:
			computeSpans++
		}
	}
	if unitSpans != 18 {
		t.Errorf("%d unit spans, want 18", unitSpans)
	}
	if computeSpans != 9 {
		t.Errorf("%d compute spans, want 9 (warm run computes nothing)", computeSpans)
	}
	if s.QueueDelay == nil || s.QueueDelay.Count != 18 {
		t.Errorf("queue-delay histogram = %+v, want 18 observations", s.QueueDelay)
	}
	if s.UnitLatency == nil || s.UnitLatency.Count != 9 {
		t.Errorf("unit-latency histogram = %+v, want 9 computed retires", s.UnitLatency)
	}
}

// TestRecorderFailureAndCancel: a failing unit records a fail terminal,
// units drained by the cancellation record cancels, and the recording
// still satisfies Check (the conservation TestSweepGateConservation pins
// on a real run).
func TestRecorderFailureAndCancel(t *testing.T) {
	rec := NewSweepRecorder()
	units := make([]Unit[int], 8)
	for i := range units {
		i := i
		units[i] = Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(ctx context.Context) (int, error) {
				if i == 0 {
					return 0, fmt.Errorf("boom")
				}
				return i, nil
			},
		}
	}
	_, _, err := Run(context.Background(), Config{Jobs: 1, Recorder: rec}, units)
	if err == nil {
		t.Fatal("expected unit failure")
	}
	s := rec.Report()
	if err := s.Check(); err != nil {
		t.Fatalf("failed-run recording violates conservation: %v", err)
	}
	if s.Failed != 1 {
		t.Errorf("failed = %d, want 1", s.Failed)
	}
	if s.Cancelled == 0 {
		t.Error("no cancelled units recorded after a jobs=1 failure drain")
	}
	if s.WastedUS < 0 {
		t.Errorf("wasted = %d", s.WastedUS)
	}
	// A cancelled-before-dequeue unit keeps worker -1 on its unit span.
	sawUndequeued := false
	for _, sp := range s.Spans {
		if sp.Phase == trace.SweepPhaseUnit && sp.Outcome == trace.SweepCancel && sp.Worker == -1 {
			sawUndequeued = true
		}
	}
	if !sawUndequeued {
		t.Error("no never-dequeued cancelled unit span (worker -1)")
	}
}

// TestRecorderMidRunReport: Report taken while units are still open
// charges them as cancelled-at-now, so a live dashboard snapshot is
// always a valid recording.
func TestRecorderMidRunReport(t *testing.T) {
	rec := NewSweepRecorder()
	units := recUnits(3)
	_ = recorderAddRun(rec, units, 2)
	rec.dequeue(0, 0)
	rec.computeStart(0)
	s := rec.Report()
	if err := s.Check(); err != nil {
		t.Fatalf("mid-run recording violates conservation: %v", err)
	}
	if s.Cancelled != 3 {
		t.Errorf("open units charged as %d cancelled, want 3", s.Cancelled)
	}
}

// TestRecorderOffByteIdentical: a run booked in the caller's recorder and
// one booked in a private recorder (Config.Recorder nil) must not differ
// in any way — byte-identical outputs, identical hit/miss accounting.
func TestRecorderOffByteIdentical(t *testing.T) {
	run := func(rec *SweepRecorder) ([]int, Stats, []int, Stats) {
		t.Helper()
		cache, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		units := recUnits(12)
		cfg := Config{Jobs: 3, Cache: cache, Recorder: rec}
		cold, coldSt, err := Run(context.Background(), cfg, units)
		if err != nil {
			t.Fatal(err)
		}
		warm, warmSt, err := Run(context.Background(), cfg, units)
		if err != nil {
			t.Fatal(err)
		}
		return cold, coldSt, warm, warmSt
	}
	coldOff, coldStOff, warmOff, warmStOff := run(nil)
	coldOn, coldStOn, warmOn, warmStOn := run(NewSweepRecorder())

	if !reflect.DeepEqual(coldOff, coldOn) || !reflect.DeepEqual(warmOff, warmOn) {
		t.Errorf("results differ with a recorder attached:\noff %v / %v\non  %v / %v",
			coldOff, warmOff, coldOn, warmOn)
	}
	type counts struct{ jobs, hits, misses, units int }
	c := func(s Stats) counts { return counts{s.Jobs, s.CacheHits, s.CacheMisses, len(s.Units)} }
	if c(coldStOff) != c(coldStOn) || c(warmStOff) != c(warmStOn) {
		t.Errorf("stats differ with a recorder attached:\noff %+v / %+v\non  %+v / %+v",
			c(coldStOff), c(warmStOff), c(coldStOn), c(warmStOn))
	}
	for i := range coldStOff.Units {
		if coldStOff.Units[i].Label != coldStOn.Units[i].Label ||
			coldStOff.Units[i].CacheHit != coldStOn.Units[i].CacheHit {
			t.Fatalf("unit %d stat drifted: off %+v, on %+v", i, coldStOff.Units[i], coldStOn.Units[i])
		}
	}
}

// TestRecorderOffZeroAlloc pins the hot-path cost of a run with no
// recorder of its own: the marginal allocations per additional unit. The
// private recorder is sized once per run, so its books add no per-unit
// allocation (cache-free path).
func TestRecorderOffZeroAlloc(t *testing.T) {
	mk := func(n int) []Unit[int] {
		units := make([]Unit[int], n)
		for i := range units {
			units[i] = Unit[int]{Label: "u", Run: func(ctx context.Context) (int, error) { return 1, nil }}
		}
		return units
	}
	ctx := context.Background()
	measure := func(n int) float64 {
		units := mk(n)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Run(ctx, Config{Jobs: 1}, units); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(1), measure(101)
	perUnit := (big - small) / 100
	// Per-unit bookkeeping that allocates would push this up.
	if perUnit > 1.5 {
		t.Errorf("nil-recorder marginal cost = %.2f allocs/unit (1 unit: %.0f, 101 units: %.0f), want <= 1.5",
			perUnit, small, big)
	}
}
