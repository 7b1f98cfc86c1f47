package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vanguard/internal/isa"
)

func testEvents() []Event {
	ins := isa.Instr{Op: isa.ADD, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3), Target: -1}
	br := isa.Instr{Op: isa.BR, Src1: isa.R(4), Target: 7, BranchID: 1}
	return []Event{
		{Kind: KindFetch, Cycle: 1, Seq: 0, PC: 0, Ins: ins},
		{Kind: KindIssue, Cycle: 5, Seq: 0, PC: 0, Ins: ins},
		{Kind: KindDBBPush, Cycle: 6, PC: 2, Val: 1},
		{Kind: KindIssue, Cycle: 7, Seq: 1, PC: 1, Ins: br},
		{Kind: KindMispredict, Cycle: 8, Seq: 1, PC: 1, Ins: br, Cause: CauseBranch, Val: 7},
		{Kind: KindSquash, Cycle: 8, Seq: 1, Val: 3},
		{Kind: KindCacheMiss, Cycle: 9, Cause: CauseDCache, Addr: 0x1000, Val: 140},
	}
}

func TestRingSink(t *testing.T) {
	r := NewRing(4)
	evs := testEvents()
	for _, ev := range evs {
		r.Emit(ev)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != int64(len(evs)-4) {
		t.Errorf("Dropped = %d, want %d", r.Dropped(), len(evs)-4)
	}
	got := r.Events()
	want := evs[len(evs)-4:]
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Under capacity: ordered, nothing dropped.
	r2 := NewRing(16)
	r2.Emit(evs[0])
	r2.Emit(evs[1])
	if r2.Len() != 2 || r2.Dropped() != 0 || r2.Events()[0] != evs[0] {
		t.Errorf("under-capacity ring wrong: len=%d dropped=%d", r2.Len(), r2.Dropped())
	}
}

// TestTextSinkCompatFormat pins the byte-exact historical vgrun -trace
// format for issue and mispredict lines.
func TestTextSinkCompatFormat(t *testing.T) {
	var buf bytes.Buffer
	s := &Text{W: &buf}
	for _, ev := range testEvents() {
		s.Emit(ev)
	}
	want := "[5] issue seq=0 pc=0 add r1, r2, r3\n" +
		"[7] issue seq=1 pc=1 br r4, @7\n" +
		"[8] MISPREDICT br r4, @7 at pc 1 -> redirect 7\n"
	if buf.String() != want {
		t.Errorf("compat text output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestTextSinkVerbose(t *testing.T) {
	var buf bytes.Buffer
	s := &Text{W: &buf, All: true}
	for _, ev := range testEvents() {
		s.Emit(ev)
	}
	out := buf.String()
	for _, want := range []string{"fetch seq=0", "dbb-push pc=2 occ=1", "squash 3 instruction(s)", "cache-miss dcache addr=0x1000 stall=140"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose output missing %q:\n%s", want, out)
		}
	}
}

// TestChromeSinkValidJSON checks the trace_event output is well-formed
// JSON with the shape Perfetto's JSON importer requires: a traceEvents
// array whose entries carry name/ph/ts/pid fields.
func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	for _, ev := range testEvents() {
		c.Emit(ev)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	lanes := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "M", "C":
		default:
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("timed event missing ts: %v", ev)
			}
			lanes[ev["tid"].(float64)] = true
		}
	}
	// The sample stream spans fetch, issue, resolve, dbb and cache lanes.
	if len(lanes) < 5 {
		t.Errorf("expected >= 5 distinct lanes, got %v", lanes)
	}
	// Lane names are declared via thread_name metadata.
	if !strings.Contains(buf.String(), `"thread_name"`) {
		t.Error("missing thread_name metadata")
	}
}

func TestTeeFanOut(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	s := Tee(nil, a, nil, b)
	s.Emit(testEvents()[0])
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("tee did not fan out: %d %d", a.Len(), b.Len())
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	if Tee(a) != Sink(a) {
		t.Error("Tee of one sink should be that sink")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := NewReport("vgrun")
	var h Hist
	h.Observe(4)
	h.Observe(9)
	r.Benchmarks = append(r.Benchmarks, &BenchReport{
		Name: "dotproduct",
		Transform: &TransformReport{
			Converted: 1, ForwardStatic: 2, PBCPct: 50,
			Branches: []BranchReport{{ID: 1, Bias: 0.6, Predictability: 0.9, Execs: 100, Hoisted: 3}},
		},
		Runs: []*RunReport{{
			Label: "timing", Width: 4,
			Counters: map[string]int64{"cycles": 123, "issued": 456},
			Rates:    map[string]float64{"ipc": 3.7},
			Hists:    map[string]*Hist{"fetch_to_issue": &h},
		}},
	})
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "vgrun" || len(back.Benchmarks) != 1 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	rr := back.Benchmarks[0].Runs[0]
	if rr.Counters["cycles"] != 123 || rr.Rates["ipc"] != 3.7 {
		t.Errorf("counters/rates lost: %+v", rr)
	}
	if got := rr.Hists["fetch_to_issue"]; got == nil || *got != h {
		t.Errorf("hist lost: %+v", got)
	}
	// Wrong schema tag is rejected.
	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v9","tool":"x"}`)); err == nil {
		t.Error("bogus schema accepted")
	}
}
