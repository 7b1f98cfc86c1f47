package engine

import (
	"net/http/httptest"
	"strings"
	"testing"

	"vanguard/internal/bpred"
)

// bpredStudyFixture is a small study with every rollup the monitor
// accumulates: two classes, two provider tables, and an escaping-hostile
// predictor name is exercised separately below.
func bpredStudyFixture(predictor string) *bpred.StudyReport {
	return &bpred.StudyReport{
		Predictor:   predictor,
		Resolves:    100,
		Updates:     100,
		Mispredicts: 9,
		Providers: []bpred.ProviderReport{
			{Table: "base", Use: 60, Correct: 55},
			{Table: "tage3", Use: 40, Correct: 36},
		},
		Classes: map[string]bpred.ClassTotals{
			bpred.ClassBiased: {Branches: 3, Execs: 80, Mispredicts: 2},
			bpred.ClassRandom: {Branches: 1, Execs: 20, Mispredicts: 7},
		},
	}
}

// TestMonitorBpredMetrics pins the /metrics surface of the observatory:
// without a probed run the vanguard_bpred_* families are absent (the
// exposition is unchanged), with one they appear as promlint-clean
// counters with properly escaped labels, and counters accumulate across
// ObserveBpred calls.
func TestMonitorBpredMetrics(t *testing.T) {
	mon := NewMonitor(NewSweepRecorder())
	scrape := func() string {
		rec := httptest.NewRecorder()
		mon.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	before := scrape()
	if err := validatePromText(before); err != nil {
		t.Fatalf("baseline exposition invalid: %v", err)
	}
	if strings.Contains(before, "vanguard_bpred_") {
		t.Fatal("probe-off exposition mentions vanguard_bpred_ families")
	}

	mon.ObserveBpred(bpredStudyFixture("tage"))
	mon.ObserveBpred(bpredStudyFixture("tage"))
	mon.ObserveBpred(nil) // must be a no-op
	body := scrape()
	if err := validatePromText(body); err != nil {
		t.Fatalf("probed exposition invalid: %v", err)
	}
	for _, want := range []string{
		"vanguard_bpred_studies_total 2",
		"vanguard_bpred_resolves_total 200",
		"vanguard_bpred_mispredicts_total 18",
		`vanguard_bpred_class_branches_total{class="` + bpred.ClassBiased + `"} 6`,
		`vanguard_bpred_class_execs_total{class="` + bpred.ClassRandom + `"} 40`,
		`vanguard_bpred_class_mispredicts_total{class="` + bpred.ClassRandom + `"} 14`,
		`vanguard_bpred_provider_use_total{table="base"} 120`,
		`vanguard_bpred_provider_use_total{table="tage3"} 80`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q:\n%s", want, body)
		}
	}

	// A hostile table name must be escaped, and the document must stay
	// promlint-clean.
	hostile := bpredStudyFixture("tage")
	hostile.Providers = append(hostile.Providers, bpred.ProviderReport{Table: "odd\"table\\\n", Use: 1})
	mon.ObserveBpred(hostile)
	body = scrape()
	if err := validatePromText(body); err != nil {
		t.Fatalf("exposition with hostile label invalid: %v", err)
	}
	if !strings.Contains(body, `table="odd\"table\\\n"`) {
		t.Errorf("hostile table label not escaped:\n%s", body)
	}
}

// TestMonitorBpredDashboard pins /debug/bpred: the empty monitor renders
// the placeholder, a probed one renders the class and provider tables.
func TestMonitorBpredDashboard(t *testing.T) {
	mon := NewMonitor(NewSweepRecorder())
	get := func() string {
		rec := httptest.NewRecorder()
		mon.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bpred", nil))
		if rec.Code != 200 {
			t.Fatalf("/debug/bpred returned %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
			t.Fatalf("/debug/bpred content type %q", ct)
		}
		return rec.Body.String()
	}

	if body := get(); !strings.Contains(body, "no probed runs yet") {
		t.Errorf("empty dashboard lacks the placeholder:\n%s", body)
	}

	mon.ObserveBpred(bpredStudyFixture("isl-tage"))
	body := get()
	for _, want := range []string{
		"predictability classes", "provider tables", "isl-tage",
		bpred.ClassBiased, bpred.ClassRandom, "tage3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard lacks %q:\n%s", want, body)
		}
	}
}
