package main

import (
	"strings"
	"testing"

	"vanguard/internal/bpred"
)

// TestPredictorFlag pins what -predictor accepts: exactly the ladder
// rung names, each constructing a fresh predictor, plus the empty name
// for the Table 1 default. Any other name is an error that lists the
// rungs.
func TestPredictorFlag(t *testing.T) {
	if rung, err := ladderRung(""); rung != nil || err != nil {
		t.Errorf(`ladderRung("") = %v, %v; want nil, nil`, rung, err)
	}
	for _, s := range bpred.LadderSpecs() {
		rung, err := ladderRung(s.Name)
		if err != nil || rung == nil || rung.Name != s.Name {
			t.Errorf("ladderRung(%q) = %v, %v", s.Name, rung, err)
			continue
		}
		if a, b := rung.New(), rung.New(); a == b {
			t.Errorf("%s constructs the same predictor twice", s.Name)
		}
	}
	for _, name := range []string{"default", "tage", "static", "nonsense"} {
		_, err := ladderRung(name)
		if err == nil {
			t.Errorf("ladderRung(%q) accepted", name)
			continue
		}
		for _, want := range rungNames() {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ladderRung(%q) error %q does not list %s", name, err, want)
			}
		}
	}
}
