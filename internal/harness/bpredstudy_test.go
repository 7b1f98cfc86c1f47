package harness

import (
	"encoding/csv"
	"strings"
	"testing"
)

// TestRunBpredDiff drives the predictor observatory end to end on a real
// benchmark: both binaries' studies must satisfy their conservation
// invariant, the classification × conversion join must annotate the
// attribution deltas with measured predictability, and the text and CSV
// surfaces must render with the advertised shapes. With
// TestBpredProbeConservation it holds the probe's books.
func TestRunBpredDiff(t *testing.T) {
	d, err := RunBpredDiff(mustBench(t, "mcf"), fastOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base == nil || d.Exp == nil || d.Attr == nil {
		t.Fatal("diff lacks studies or attribution")
	}
	for _, r := range []struct {
		name string
		err  error
	}{{"base", d.Base.Check()}, {"exp", d.Exp.Check()}} {
		if r.err != nil {
			t.Errorf("%s study: conservation violated: %v", r.name, r.err)
		}
	}
	if len(d.Base.Branches) == 0 || len(d.Base.Classes) == 0 {
		t.Fatal("baseline study classified no branches")
	}

	rows := d.JoinRows()
	if len(rows) == 0 {
		t.Fatal("empty join")
	}
	sawConverted, sawClassified := false, false
	for _, r := range rows {
		if r.Class == "" {
			t.Fatalf("branch %d has an empty class", r.ID)
		}
		if r.Converted {
			sawConverted = true
		}
		if r.Class != "unseen" {
			sawClassified = true
			if r.Execs == 0 {
				t.Errorf("branch %d classified %s with zero observed execs", r.ID, r.Class)
			}
		}
	}
	if len(d.Attr.Transform.Converted) > 0 && !sawConverted {
		t.Error("transform converted branches but no join row is marked converted")
	}
	if !sawClassified {
		t.Error("no join row carries a measured classification")
	}

	var sb strings.Builder
	WriteBpredReport(&sb, d, 5)
	for _, want := range []string{"baseline", "vanguard", "predictability classes", "classification x conversion", "provider mix"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text rendering lacks %q", want)
		}
	}

	sb.Reset()
	n, err := WriteBpredJoinCSV(&sb, d)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("join CSV does not parse: %v", err)
	}
	if n != len(rows) || len(recs) != n+1 {
		t.Fatalf("join CSV: %d rows for %d join rows (%d records)", n, len(rows), len(recs))
	}

	sb.Reset()
	n, err = WriteBpredRuns(&sb, d.Runs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(d.Base.Branches) {
		t.Fatalf("study CSV: %d rows for %d digests", n, len(d.Base.Branches))
	}
}

// TestWriteBpredCSVBulk pins the spec/ablate bulk surface: a probed
// benchmark result exports one CSV row per (input, width, binary,
// classified branch), and a probe-off result exports only the header.
func TestWriteBpredCSVBulk(t *testing.T) {
	o := fastOptions()
	o.Probe = true
	res, err := RunBenchmark(mustBench(t, "mcf"), o)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, ir := range res.Inputs {
		for _, wr := range ir.Runs {
			if wr.Base.Bpred == nil || wr.Exp.Bpred == nil {
				t.Fatal("probed run missing its study")
			}
			want += len(wr.Base.Bpred.Branches) + len(wr.Exp.Bpred.Branches)
		}
	}
	var sb strings.Builder
	n, err := WriteBpredCSV(&sb, []*BenchResult{res})
	if err != nil {
		t.Fatal(err)
	}
	if n != want || n == 0 {
		t.Fatalf("bulk CSV: %d rows, want %d", n, want)
	}
	if _, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll(); err != nil {
		t.Fatalf("bulk CSV does not parse: %v", err)
	}

	o.Probe = false
	plain, err := RunBenchmark(mustBench(t, "mcf"), o)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	n, err = WriteBpredCSV(&sb, []*BenchResult{plain})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("probe-off result exported %d rows", n)
	}
}
