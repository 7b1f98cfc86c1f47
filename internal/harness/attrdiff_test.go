package harness

import (
	"encoding/csv"
	"strings"
	"testing"

	"vanguard/internal/workload"
)

// TestRunAttrDiff drives the differential attribution end to end on a
// real benchmark: both binaries must conserve their slot accounting, the
// branch deltas must join the transform report and TRAIN profile, and the
// CSV exports must parse back with the advertised shapes. With
// TestAttrInvariant it holds the attribution books.
func TestRunAttrDiff(t *testing.T) {
	c, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing benchmark")
	}
	d, err := RunAttrDiff(c, fastOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base == nil || d.Exp == nil {
		t.Fatal("diff lacks attribution reports")
	}
	for _, r := range []struct {
		name string
		rep  interface{ Check() error }
	}{{"base", d.Base}, {"exp", d.Exp}} {
		if err := r.rep.Check(); err != nil {
			t.Errorf("%s: conservation violated: %v", r.name, err)
		}
	}
	if d.Width != 4 || d.Benchmark != c.Name {
		t.Fatalf("diff identity = %s w%d", d.Benchmark, d.Width)
	}

	deltas := d.BranchDeltas()
	if len(deltas) == 0 {
		t.Fatal("no branch deltas")
	}
	sawConverted, sawProfiled := false, false
	for i, bd := range deltas {
		if bd.ID == 0 {
			t.Fatal("branch 0 must be skipped")
		}
		if bd.Delta != bd.BaseSlots-bd.ExpSlots {
			t.Fatalf("branch %d: delta %d != %d-%d", bd.ID, bd.Delta, bd.BaseSlots, bd.ExpSlots)
		}
		if i > 0 && deltas[i-1].Delta < bd.Delta {
			t.Fatal("deltas must sort most-recovered first")
		}
		sawConverted = sawConverted || bd.Converted
		sawProfiled = sawProfiled || bd.Bias > 0 || bd.Predictability > 0
	}
	if len(d.Transform.Converted) > 0 && !sawConverted {
		t.Error("transform converted branches but no delta row is marked converted")
	}
	if !sawProfiled {
		t.Error("no delta row joined the TRAIN profile (bias/predictability all zero)")
	}

	names, bars := d.CPIStackBars()
	if len(bars) != 2 {
		t.Fatalf("want baseline+vanguard bars, got %d", len(bars))
	}
	for _, b := range bars {
		if len(b.Segments) != len(names) {
			t.Fatalf("%s bar has %d segments for %d causes", b.Label, len(b.Segments), len(names))
		}
	}

	var sb strings.Builder
	WriteAttrDiff(&sb, d, 5)
	for _, want := range []string{"cycle stack", "per-cause slots", "baseline", "vanguard"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text rendering lacks %q", want)
		}
	}

	sb.Reset()
	rows, err := WriteCPIStackCSV(&sb, d)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("cpistack CSV does not parse: %v", err)
	}
	if len(recs) != rows+1 || rows != 2*len(names) {
		t.Fatalf("cpistack CSV: %d records, %d rows, want binary x cause = %d", len(recs), rows, 2*len(names))
	}

	sb.Reset()
	rows, err = WriteBranchDeltaCSV(&sb, d)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("branches CSV does not parse: %v", err)
	}
	if rows != len(deltas) || len(recs) != rows+1 {
		t.Fatalf("branches CSV: %d rows for %d deltas", rows, len(deltas))
	}
}
