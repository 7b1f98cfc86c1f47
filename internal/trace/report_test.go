package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/sample"
)

// testStudy is a small predictor study that satisfies its conservation
// invariant and exercises the per-branch classification.
func testStudy() *bpred.StudyReport {
	return &bpred.StudyReport{
		Predictor:   "tage",
		SizeBits:    1234,
		Resolves:    10,
		Updates:     10,
		Mispredicts: 3,
		Providers: []bpred.ProviderReport{
			{Table: "base", Use: 6, Correct: 4, Weak: 1},
			{Table: "tage1", Use: 4, Correct: 3},
		},
		Confidence: bpred.ConfidenceReport{ConfidentCorrect: 6, ConfidentWrong: 3, WeakCorrect: 1},
		Aliasing:   []bpred.AliasReport{{Name: "base", Entries: 64, Touched: 3, Conflicts: 1, Updates: 10}},
		Survey:     []bpred.TableSurvey{{Name: "base", Entries: 64, Occupied: 3, Weak: 1}},
		Branches: []bpred.BranchDigest{
			{ID: 1, Execs: 7, Taken: 7, Mispredicts: 1, Bias: 1, Entropy: 0, Class: bpred.ClassBiased},
			{ID: 2, Execs: 3, Taken: 1, Mispredicts: 2, Bias: 2.0 / 3, TransitionRate: 1, Entropy: 0, Class: bpred.ClassRegime},
		},
		Classes: map[string]bpred.ClassTotals{
			bpred.ClassBiased: {Branches: 1, Execs: 7, Mispredicts: 1},
			bpred.ClassRegime: {Branches: 1, Execs: 3, Mispredicts: 2},
		},
	}
}

// reportSections lists every optional report section by its JSON key.
var reportSections = []string{"samples", "attribution", "pipeview", "sweep", "bpredstudy"}

// roundTrip builds a one-run report, lets run and rep add a section,
// writes it, and pins the schema rule: the report is stamped Schema, it
// mentions no optional section other than section ("" for none), and it
// reads back. It returns the report as read.
func roundTrip(t *testing.T, section string, run func(*RunReport), rep func(*Report)) *Report {
	t.Helper()
	r := &RunReport{Label: "timing", Width: 4, Counters: map[string]int64{"cycles": 1}}
	report := NewReport("vgrun")
	report.Benchmarks = append(report.Benchmarks, &BenchReport{Name: "x", Runs: []*RunReport{r}})
	if run != nil {
		run(r)
	}
	if rep != nil {
		rep(report)
	}
	var buf bytes.Buffer
	if err := report.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"schema": "`+Schema+`"`) {
		t.Errorf("report not stamped %s:\n%.300s", Schema, out)
	}
	for _, s := range reportSections {
		if s != section && strings.Contains(out, `"`+s+`"`) {
			t.Errorf("report without a %s section mentions it:\n%.300s", s, out)
		}
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("written report rejected: %v", err)
	}
	return back
}

// TestReportSchema pins that a plain report and one carrying a pipeview
// section are both stamped v1 and read back.
func TestReportSchema(t *testing.T) {
	roundTrip(t, "", nil, nil)
	back := roundTrip(t, "pipeview", func(r *RunReport) { r.Pipeview = &PipeviewReport{Trigger: "all"} }, nil)
	if pv := back.Benchmarks[0].Runs[0].Pipeview; pv == nil || pv.Trigger != "all" {
		t.Errorf("pipeview lost in round trip: %+v", pv)
	}
}

// TestReportSchemaV2 pins that a samples section leaves the v1 stamp
// alone and survives a write/read cycle.
func TestReportSchemaV2(t *testing.T) {
	back := roundTrip(t, "samples", func(r *RunReport) {
		r.Samples = &sample.Series{WindowCycles: 100, Windows: []sample.Window{{Start: 0, End: 100, Committed: 42}}}
	}, nil)
	sr := back.Benchmarks[0].Runs[0].Samples
	if sr == nil || len(sr.Windows) != 1 || sr.Windows[0].Committed != 42 {
		t.Errorf("samples lost in round trip: %+v", sr)
	}
}

// TestReportSchemaV3 pins that an attribution section leaves the v1
// stamp alone, survives a write/read cycle, and still satisfies its
// invariant.
func TestReportSchemaV3(t *testing.T) {
	rec := attr.NewRecorder(4, 1, 2)
	rec.ChargeCycles(1, attr.CondWait, 1, 1)
	back := roundTrip(t, "attribution", func(r *RunReport) { r.Attribution = rec.Report() }, nil)
	ar := back.Benchmarks[0].Runs[0].Attribution
	if ar == nil || ar.Slots[attr.Base.Key()] != 1 || ar.Slots[attr.CondWait.Key()] != 1 {
		t.Fatalf("attribution lost in round trip: %+v", ar)
	}
	if err := ar.Check(); err != nil {
		t.Errorf("round-tripped attribution fails its invariant: %v", err)
	}
}

// TestReportSchemaV5 pins that a sweep section leaves the v1 stamp
// alone, survives a write/read cycle, and still passes Check.
func TestReportSchemaV5(t *testing.T) {
	back := roundTrip(t, "sweep", nil, func(r *Report) { r.Sweep = goldenSweep() })
	if back.Sweep == nil || back.Sweep.Units != 4 || len(back.Sweep.Spans) != 13 {
		t.Fatalf("sweep section lost in round trip: %+v", back.Sweep)
	}
	if err := back.Sweep.Check(); err != nil {
		t.Errorf("round-tripped sweep section fails Check: %v", err)
	}
}

// TestReportSchemaV6BpredRoundTrip pins that a bpredstudy section leaves
// the v1 stamp alone, is preserved exactly through a write/read cycle
// (per-branch classification included), and still satisfies its
// conservation invariant.
func TestReportSchemaV6BpredRoundTrip(t *testing.T) {
	study := testStudy()
	if err := study.Check(); err != nil {
		t.Fatalf("study fixture fails Check: %v", err)
	}
	back := roundTrip(t, "bpredstudy", func(r *RunReport) { r.Bpredstudy = study }, nil)
	got := back.Benchmarks[0].Runs[0].Bpredstudy
	if !reflect.DeepEqual(got, study) {
		t.Fatalf("bpredstudy changed in round trip:\ngot  %+v\nwant %+v", got, study)
	}
	if err := got.Check(); err != nil {
		t.Errorf("round-tripped study fails its invariant: %v", err)
	}
}

// TestSchemaConstantsAccepted pins the readable tag set: reports stamped
// v1 through v6 by earlier writers still read, any other tag is
// rejected, and SchemaError names the newest readable tag.
func TestSchemaConstantsAccepted(t *testing.T) {
	if Schema != schemaVersion(1) {
		t.Errorf("Schema = %q, want %q", Schema, schemaVersion(1))
	}
	for n := 1; n <= 6; n++ {
		tag := schemaVersion(n)
		if _, err := ReadReport(strings.NewReader(`{"schema":"` + tag + `"}`)); err != nil {
			t.Errorf("report stamped %s rejected: %v", tag, err)
		}
	}
	for _, tag := range []string{"", "vanguard-telemetry/v0", "vanguard-telemetry/v7", "vanguard-telemetry/v999"} {
		if _, err := ReadReport(strings.NewReader(`{"schema":"` + tag + `"}`)); err == nil {
			t.Errorf("report stamped %q accepted", tag)
		}
	}
	if e := (&SchemaError{Got: "bogus"}).Error(); !strings.Contains(e, schemaVersion(6)) {
		t.Errorf("SchemaError %q does not name the newest readable tag", e)
	}
}

// FuzzReadReport feeds arbitrary bytes to ReadReport, the reader of
// report files written by any earlier revision: it must never panic, and
// a report it accepts must survive Write and a second ReadReport
// unchanged — the second Write reproduces the first byte for byte.
func FuzzReadReport(f *testing.F) {
	for _, name := range []string{"dotproduct_w2.json", "dotproduct_w4.json", "dotproduct_w8.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + Schema + `","tool":"spec","benchmarks":[{"name":"mcf","runs":[{"width":4,"counters":{"cycles":1}}]}]}`))
	f.Add([]byte(`{"schema":"vanguard-telemetry/v0"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := r.Write(&first); err != nil {
			t.Fatalf("write of an accepted report: %v", err)
		}
		again, err := ReadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written report rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("report changed across Write and ReadReport:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
