package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSweep is a small fixed recording exercising every span shape: a
// miss+compute retire, a cache hit served without compute, a failed
// compute, and a cancelled unit that never left the queue.
func goldenSweep() *SweepReport {
	qd, lat := &Hist{}, &Hist{}
	for _, v := range []int64{10, 5, 10, 80} {
		qd.Observe(v)
	}
	lat.Observe(36)
	return &SweepReport{
		Schema:  SweepSchema,
		Workers: 2, Units: 4,
		CacheHits: 1, CacheMisses: 2,
		Failed: 1, Cancelled: 1,
		WallUS: 80, QueueWaitUS: 105, WastedUS: 116,
		QueueDelay: qd, UnitLatency: lat,
		Spans: []SweepSpan{
			{Unit: 0, Label: "alpha", Phase: SweepPhaseUnit, Worker: 0, StartUS: 0, DurUS: 50, Outcome: SweepRetire, Key: "k0"},
			{Unit: 0, Label: "alpha", Phase: SweepPhaseQueue, Worker: -1, StartUS: 0, DurUS: 10},
			{Unit: 0, Label: "alpha", Phase: SweepPhaseProbe, Worker: 0, StartUS: 10, DurUS: 2, Outcome: SweepMiss},
			{Unit: 0, Label: "alpha", Phase: SweepPhaseCompute, Worker: 0, StartUS: 14, DurUS: 36},
			{Unit: 1, Label: "beta", Phase: SweepPhaseUnit, Worker: 1, StartUS: 0, DurUS: 8, Outcome: SweepRetire, Key: "k1"},
			{Unit: 1, Label: "beta", Phase: SweepPhaseQueue, Worker: -1, StartUS: 0, DurUS: 5},
			{Unit: 1, Label: "beta", Phase: SweepPhaseProbe, Worker: 1, StartUS: 5, DurUS: 3, Outcome: SweepHit},
			{Unit: 2, Label: "gamma", Phase: SweepPhaseUnit, Worker: 0, StartUS: 0, DurUS: 50, Outcome: SweepFail, Key: "k2"},
			{Unit: 2, Label: "gamma", Phase: SweepPhaseQueue, Worker: -1, StartUS: 0, DurUS: 10},
			{Unit: 2, Label: "gamma", Phase: SweepPhaseProbe, Worker: 0, StartUS: 12, DurUS: 2, Outcome: SweepMiss},
			{Unit: 2, Label: "gamma", Phase: SweepPhaseCompute, Worker: 0, StartUS: 14, DurUS: 36},
			{Unit: 3, Label: "delta", Phase: SweepPhaseUnit, Worker: -1, StartUS: 0, DurUS: 80, Outcome: SweepCancel},
			{Unit: 3, Label: "delta", Phase: SweepPhaseQueue, Worker: -1, StartUS: 0, DurUS: 80},
		},
	}
}

func TestSweepCheckGolden(t *testing.T) {
	if err := goldenSweep().Check(); err != nil {
		t.Fatalf("golden recording violates conservation: %v", err)
	}
}

// TestSweepCheckViolations pins every clause of the conservation
// invariant: each mutation of the golden recording must be rejected.
func TestSweepCheckViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *SweepReport)
	}{
		{"missing unit span", func(s *SweepReport) { s.Spans = s.Spans[1:] }},
		{"duplicate unit span", func(s *SweepReport) { s.Spans = append(s.Spans, s.Spans[0]) }},
		{"unit index out of range", func(s *SweepReport) { s.Spans[0].Unit = 99 }},
		{"non-terminal unit outcome", func(s *SweepReport) { s.Spans[0].Outcome = SweepHit }},
		{"unknown phase", func(s *SweepReport) { s.Spans[1].Phase = "warp" }},
		{"phase span escapes unit span", func(s *SweepReport) { s.Spans[3].DurUS = 1000 }},
		{"phase span before unit span", func(s *SweepReport) { s.Spans[2].StartUS = -1 }},
		{"probe outcome junk", func(s *SweepReport) { s.Spans[2].Outcome = "maybe" }},
		{"hit counter drift", func(s *SweepReport) { s.CacheHits = 2 }},
		{"miss counter drift", func(s *SweepReport) { s.CacheMisses = 0 }},
		{"failed counter drift", func(s *SweepReport) { s.Failed = 0 }},
		{"cancelled counter drift", func(s *SweepReport) { s.Cancelled = 2 }},
	}
	for _, tc := range cases {
		s := goldenSweep()
		tc.mut(s)
		if err := s.Check(); err == nil {
			t.Errorf("%s: Check accepted the corrupted recording", tc.name)
		}
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep_trace.json")
	s := goldenSweep()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the recording:\nwrote %+v\nread  %+v", s, back)
	}
	if err := back.Check(); err != nil {
		t.Errorf("round-tripped recording fails Check: %v", err)
	}

	if _, err := ReadSweep(strings.NewReader(`{"schema":"vanguard-sweep-trace/v9"}`)); err == nil {
		t.Error("future sweep schema accepted")
	}
}

// TestSweepReadsLaneFields pins backward compatibility of the v1 wire
// format: a recording written while the engine still formed lane groups
// (compute spans carrying batch/width, a top-level groups list) must
// still read, check, and decode to the same recording without them.
func TestSweepReadsLaneFields(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "sweep_lanes_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadSweep(f)
	if err != nil {
		t.Fatalf("lane-era recording rejected: %v", err)
	}
	if err := back.Check(); err != nil {
		t.Errorf("lane-era recording fails Check: %v", err)
	}
	if want := goldenSweep(); !reflect.DeepEqual(back, want) {
		t.Errorf("lane-era recording decoded differently:\ngot  %+v\nwant %+v", back, want)
	}
}

// TestSweepChromeGolden pins the Chrome timeline export byte-for-byte.
// Regenerate with
//
//	go test ./internal/trace/ -run TestSweepChromeGolden -update
func TestSweepChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSweep().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "sweep_golden.trace")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome export drifted from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Byte stability: a second render is identical.
	var buf2 bytes.Buffer
	if err := goldenSweep().WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf2.Bytes()) {
		t.Error("two renders of the same recording differ")
	}
}

// TestSweepChromeRoundTrip parses the export back and reconciles it with
// the source spans — the independent witness that the timeline renders
// what the recording says.
func TestSweepChromeRoundTrip(t *testing.T) {
	s := goldenSweep()
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseChromeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var spans, meta, counters int
	names := map[string]bool{}
	for _, e := range evs {
		switch e.Ph {
		case "X":
			spans++
			names[e.Name] = true
		case "M":
			meta++
			if e.Name == "thread_name" {
				names["tid:"+e.Args["name"].(string)] = true
			}
		case "C":
			counters++
		}
	}
	// Unit spans are JSON-only bookkeeping; the timeline renders the 4
	// queue, 3 probe, and 2 compute spans.
	if spans != 9 {
		t.Errorf("rendered %d spans, want 9 (unit spans must stay JSON-only)", spans)
	}
	// process_name + 2 worker threads + queue thread.
	if meta != 4 {
		t.Errorf("%d metadata events, want 4", meta)
	}
	// Initial depth plus one decrement per queue-span drain.
	if counters != 5 {
		t.Errorf("%d queue-depth counter events, want 5", counters)
	}
	for _, want := range []string{
		"alpha",
		"probe:hit", "probe:miss",
		"queue:delta",
		"tid:worker 0", "tid:worker 1", "tid:queue",
	} {
		if !names[want] {
			t.Errorf("timeline missing %q; have %v", want, names)
		}
	}
	// Worker tracks are offset by one (tid 0 is unused), queue after the
	// last worker, and span args carry the unit index for joining back.
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		if strings.HasPrefix(e.Name, "queue:") {
			if e.Tid != s.Workers+1 {
				t.Errorf("queue span %q on tid %d, want %d", e.Name, e.Tid, s.Workers+1)
			}
		} else if e.Tid < 1 || e.Tid > s.Workers {
			t.Errorf("worker span %q on tid %d, want 1..%d", e.Name, e.Tid, s.Workers)
		}
		if _, ok := e.Args["unit"]; !ok {
			t.Errorf("span %q has no unit arg: %v", e.Name, e.Args)
		}
	}
}
