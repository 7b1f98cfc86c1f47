package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFoldGolden folds a committed `go tool pprof -top` listing through
// the committed layer map.
func TestFoldGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 || rows[3].fn != "vanguard/internal/pipeline.(*Machine).fbAt" || rows[6].flat != 60*time.Millisecond {
		t.Fatalf("parsed rows = %+v", rows)
	}
	rules, err := parseLayers(layersTxt)
	if err != nil {
		t.Fatal(err)
	}
	shares, unmapped := fold(rows, rules)
	want := map[string]float64{
		"bpred":            0.40,
		"pipeline.issue":   0.165, // issue and issuePhase
		"pipeline.fetch":   0.15,  // fetch and the fb* ring
		"pipeline.resolve": 0.05,
		"runtime":          0.07, // memclr and memeqbody
		"runtime.gc":       0.03,
		"runtime.malloc":   0.02,
		"workload":         0.02,
		"sched":            0.02,
		"exec":             0.015,
		"mem":              0.015,
		"cache":            0.015,
		"json":             0.015,
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("layers = %v, want %v", shares, want)
	}
	if math.Abs(unmapped-0.015) > 1e-9 {
		t.Errorf("unmapped = %v, want 0.015 (compress/flate)", unmapped)
	}
	if got := unmappedFunctions(rows, rules); len(got) != 1 || !strings.HasPrefix(got[0], "compress/flate.") {
		t.Errorf("unmapped functions = %v", got)
	}
}

func TestParseTopRejectsOtherText(t *testing.T) {
	if _, err := parseTop("no profile here\n"); err == nil {
		t.Error("text without a header parsed")
	}
	if _, err := parseTop("      flat  flat%   sum%        cum   cum%\n  12 bogus\n"); err == nil {
		t.Error("malformed row parsed")
	}
}

// TestLayerRulesReachable checks that no rule is shadowed by an earlier
// rule whose prefix also matches everything the later one does.
func TestLayerRulesReachable(t *testing.T) {
	rules, err := parseLayers(layersTxt)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rules {
		for _, earlier := range rules[:i] {
			if strings.HasPrefix(r.prefix, earlier.prefix) {
				t.Errorf("rule %q -> %s is shadowed by %q -> %s", r.prefix, r.layer, earlier.prefix, earlier.layer)
			}
		}
	}
	if _, err := parseLayers("one two three\n"); err == nil {
		t.Error("a three-field line parsed")
	}
}
