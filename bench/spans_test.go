package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fixedTracer builds a tracer from spans with given times (milliseconds).
func fixedTracer(spans ...span) *tracer {
	t := &tracer{units: []string{"0/a/build"}}
	for _, s := range spans {
		s.Start *= time.Millisecond
		s.End *= time.Millisecond
		t.spans = append(t.spans, s)
	}
	return t
}

func TestSpanSelfTime(t *testing.T) {
	tr := fixedTracer(
		span{Name: "replay", Parent: -1, Unit: -1, Start: 0, End: 100, Mallocs: 50},
		span{Name: "build", Parent: 0, Unit: 0, Start: 0, End: 60, Mallocs: 40},
		span{Name: "sched.program", Parent: 1, Unit: 0, Start: 5, End: 35, Mallocs: 30},
		span{Name: "sched.program", Parent: 1, Unit: 0, Start: 35, End: 55, Mallocs: 5},
		span{Name: "harness.report", Parent: 0, Unit: -1, Start: 70, End: 98, Mallocs: 2},
	)
	self, mallocs := tr.selfTimes()
	wantSelf := []time.Duration{12, 10, 30, 20, 28}
	wantMallocs := []int64{8, 5, 30, 5, 2}
	for i := range self {
		if self[i] != wantSelf[i]*time.Millisecond || mallocs[i] != wantMallocs[i] {
			t.Errorf("span %d (%s): self %v mallocs %d, want %v %d",
				i, tr.spans[i].Name, self[i], mallocs[i], wantSelf[i]*time.Millisecond, wantMallocs[i])
		}
	}
	// Layer spans (sched.program, harness.report) cover 78 of 100 ms, or
	// 78 of the 80 ms left when the tracer spent 20 ms reading MemStats.
	if got := tr.coverage(); math.Abs(got-0.78) > 1e-9 {
		t.Errorf("coverage = %v, want 0.78", got)
	}
	tr.bookkeeping = 20 * time.Millisecond
	if got := tr.coverage(); math.Abs(got-0.975) > 1e-9 {
		t.Errorf("coverage less bookkeeping = %v, want 0.975", got)
	}
	byName := tr.byName()
	if b := byName[0]; b.Name != "sched.program" || b.Calls != 2 || math.Abs(b.SelfS-0.05) > 1e-12 || b.Mallocs != 35 {
		t.Errorf("largest self time = %+v, want sched.program 2 calls 0.05s 35 mallocs", byName[0])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	u := tr.unit("0/a/build")
	root := tr.begin("replay", -1)
	g := tr.begin("build", u)
	s := tr.begin("sched.program", u)
	_ = make([]byte, 1<<10)
	tr.end(s)
	tr.end(g)
	tr.end(root)
	if tr.spans[g].Parent != root || tr.spans[s].Parent != g || tr.spans[s].Unit != u {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for i, sp := range tr.spans {
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts: %+v", i, sp)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span out of order did not panic")
		}
	}()
	a := tr.begin("a", -1)
	tr.begin("b", -1)
	tr.end(a)
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("sched.program", tr.unit("x"))
	tr.end(s)
	if s != -1 {
		t.Errorf("nil tracer returned span id %d", s)
	}
}

func TestSpanFiles(t *testing.T) {
	tr := fixedTracer(
		span{Name: "replay", Parent: -1, Unit: -1, Start: 0, End: 10},
		span{Name: "sched.program", Parent: 0, Unit: 0, Start: 1, End: 9, Mallocs: 3},
	)
	dir := t.TempDir()
	if err := tr.writeJSON(filepath.Join(dir, "w.trace.json"), "w", 7); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seed  int64      `json:"seed"`
		Spans []spanJSON `json:"spans"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "w.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Seed != 7 || len(doc.Spans) != 2 || doc.Spans[0].SelfUS != 2000 || doc.Spans[1].Parent != 0 {
		t.Errorf("trace file = %s", data)
	}

	if err := tr.writeChrome(filepath.Join(dir, "w.chrome.json"), "w"); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if data, err = os.ReadFile(filepath.Join(dir, "w.chrome.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var slices int
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != 2 {
		t.Errorf("chrome trace has %d slices, want 2: %s", slices, data)
	}
}
