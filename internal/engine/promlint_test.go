package engine

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"vanguard/internal/trace"
)

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promValueRe  = regexp.MustCompile(`^-?(\d+(\.\d+)?([eE][+-]?\d+)?|\+?Inf|NaN)$`)
)

// validatePromText is a minimal Prometheus text-exposition (0.0.4)
// validator: every sample line must parse as name{labels} value, names
// and label keys must be legal, label values must close their quotes
// with only valid escapes (\\, \", \n) inside, every metric family must
// carry HELP and TYPE lines before its first sample, and no series
// (name plus exact label set) may appear twice. Suffix consistency is
// enforced too: _bucket/_sum/_count samples must resolve to a declared
// histogram (or _sum/_count to a summary), _bucket series must carry an
// le label, and any family named *_total must be declared a counter.
func validatePromText(text string) error {
	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{}
	// family resolves a sample name to its declared metric family:
	// the name itself, or — for histogram/summary component samples —
	// the base name with the _bucket/_sum/_count suffix stripped.
	family := func(name string) string {
		if typed[name] != "" || helped[name] {
			return name
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base, ok := strings.CutSuffix(name, suf)
			if !ok {
				continue
			}
			switch typed[base] {
			case "histogram":
				return base
			case "summary":
				if suf != "_bucket" {
					return base
				}
			}
		}
		return name
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln+1, f[1])
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		name, labels, value, err := splitPromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln+1, err)
		}
		if !promMetricRe.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", ln+1, name)
		}
		fam := family(name)
		if !helped[fam] {
			return fmt.Errorf("line %d: %s sampled before its # HELP line", ln+1, name)
		}
		typ := typed[fam]
		if typ == "" {
			return fmt.Errorf("line %d: %s sampled before its # TYPE line", ln+1, name)
		}
		if strings.HasSuffix(fam, "_total") && typ != "counter" {
			return fmt.Errorf("line %d: %s is suffixed _total but declared %s, want counter", ln+1, fam, typ)
		}
		if typ == "histogram" && fam == name {
			return fmt.Errorf("line %d: histogram %s sampled without a _bucket/_sum/_count suffix", ln+1, name)
		}
		if strings.HasSuffix(name, "_bucket") && fam != name && !strings.Contains(labels, `le="`) {
			return fmt.Errorf("line %d: histogram bucket %s has no le label", ln+1, name)
		}
		if !promValueRe.MatchString(value) {
			return fmt.Errorf("line %d: bad sample value %q", ln+1, value)
		}
		series := name + "{" + labels + "}"
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", ln+1, series)
		}
		seen[series] = true
	}
	for name := range helped {
		if typed[name] == "" {
			return fmt.Errorf("%s has HELP but no TYPE", name)
		}
	}
	return nil
}

// splitPromSample parses `name value` or `name{k="v",...} value`,
// checking label-key syntax and label-value escaping.
func splitPromSample(line string) (name, labels, value string, err error) {
	if open := strings.IndexByte(line, '{'); open >= 0 {
		name = line[:open]
		rest := line[open+1:]
		cls, err := scanPromLabels(rest)
		if err != nil {
			return "", "", "", err
		}
		labels = rest[:cls]
		tail := strings.TrimPrefix(rest[cls+1:], " ")
		return name, labels, tail, nil
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return "", "", "", fmt.Errorf("want `name value`, got %q", line)
	}
	return f[0], "", f[1], nil
}

// scanPromLabels walks `k="v",k2="v2"}`... and returns the index of the
// closing brace, validating keys and escape sequences along the way.
func scanPromLabels(s string) (int, error) {
	i := 0
	for {
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) || !promLabelRe.MatchString(s[i:j]) {
			return 0, fmt.Errorf("bad label key in %q", s)
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return 0, fmt.Errorf("label value not quoted in %q", s)
		}
		k := j + 2
		for k < len(s) && s[k] != '"' {
			if s[k] == '\\' {
				if k+1 >= len(s) || !strings.ContainsRune(`\"n`, rune(s[k+1])) {
					return 0, fmt.Errorf("bad escape in label value: %q", s)
				}
				k++
			}
			if s[k] == '\n' {
				return 0, fmt.Errorf("raw newline in label value: %q", s)
			}
			k++
		}
		if k >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		switch {
		case strings.HasPrefix(s[k+1:], ","):
			i = k + 2
		case strings.HasPrefix(s[k+1:], "}"):
			return k + 1, nil
		default:
			return 0, fmt.Errorf("junk after label value in %q", s)
		}
	}
}

func TestPromValidatorRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_or_help 1\n",
		"# HELP x y\n# TYPE x gauge\nx{k=\"unterminated} 1\n",
		"# HELP x y\n# TYPE x gauge\nx{k=\"v\"} 1\nx{k=\"v\"} 2\n", // duplicate series
		"# HELP x y\n# TYPE x widget\nx 1\n",
		"# HELP x y\n# TYPE x gauge\nx{k=\"bad\\q\"} 1\n", // bad escape
		"# HELP x y\n# TYPE x gauge\nx notanumber\n",
		"# HELP x_total y\n# TYPE x_total gauge\nx_total 1\n",     // _total must be a counter
		"# HELP h w\n# TYPE h histogram\nh 1\n",                   // histogram sampled bare
		"# HELP h w\n# TYPE h histogram\nh_bucket{k=\"v\"} 1\n",   // bucket without le
		"h_bucket{le=\"+Inf\"} 1\n",                               // bucket with no declared family
		"# HELP h w\n# TYPE h summary\nh_bucket{le=\"+Inf\"} 1\n", // _bucket on a summary
	}
	for _, text := range bad {
		if err := validatePromText(text); err == nil {
			t.Errorf("validator accepted malformed exposition:\n%s", text)
		}
	}
	good := "# HELP x y\n# TYPE x counter\nx{k=\"a\\\"b\\\\c\\nd\"} 1\nx{k=\"other\"} 2.5\nx 3\n" +
		"# HELP h w\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.3\nh_count 2\n"
	if err := validatePromText(good); err != nil {
		t.Errorf("validator rejected well-formed exposition: %v\n%s", err, good)
	}
}

// TestMetricsPromFormat is the satellite gate: the full /metrics output —
// including per-cause attribution counters with a label value that needs
// every escape — passes the text-format validator with no duplicate
// series, and the escaped label round-trips.
func TestMetricsPromFormat(t *testing.T) {
	rec, mon := seed(4, 2, "u", "u2", "u3")
	book(rec, 0, 0, 0, true, false, trace.SweepRetire) // computed: a cache miss
	book(rec, 1, 0, 0, true, true, trace.SweepRetire)  // cache hit
	book(rec, 2, 0, 0, true, false, trace.SweepFail)   // failed: also a cache miss
	mon.ObserveAttr(map[string]int64{
		"base":          100,
		"br_mispredict": 40,
		`odd"cause\n`:   7, // forces label escaping
	})
	mon.ObserveAttr(map[string]int64{"base": 20}) // counters accumulate

	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	text := getBody(t, srv.URL+"/metrics")

	if err := validatePromText(text); err != nil {
		t.Fatalf("/metrics fails Prometheus text-format validation: %v\n%s", err, text)
	}
	for _, want := range []string{
		`vanguard_attr_slots_total{cause="base"} 120`,
		`vanguard_attr_slots_total{cause="br_mispredict"} 40`,
		`vanguard_attr_slots_total{cause="odd\"cause\\n"} 7`,
		"vanguard_cache_hits_total 1",
		"vanguard_cache_misses_total 2",
		"vanguard_unit_errors_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsFamilies pins the /metrics family list and types, in
// exposition order, of a monitor that has seen units, attribution and a
// predictor study, so a family cannot be renamed or dropped unnoticed.
func TestMetricsFamilies(t *testing.T) {
	rec, mon := seed(2, 1, "u")
	book(rec, 0, 0, time.Millisecond, true, false, trace.SweepRetire)
	mon.ObserveAttr(map[string]int64{"base": 1})
	mon.ObserveBpred(bpredStudyFixture("tage"))
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	var got []string
	for _, line := range strings.Split(getBody(t, srv.URL+"/metrics"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, rest)
		}
	}
	want := []string{
		"vanguard_units_total counter",
		"vanguard_units_done gauge",
		"vanguard_units_failed gauge",
		"vanguard_cache_hits_total counter",
		"vanguard_cache_misses_total counter",
		"vanguard_cache_corrupt_total counter",
		"vanguard_unit_errors_total counter",
		"vanguard_workers_active gauge",
		"vanguard_queue_depth gauge",
		"vanguard_worker_busy_ratio gauge",
		"vanguard_unit_latency_ewma_seconds gauge",
		"vanguard_eta_seconds gauge",
		"vanguard_unit_latency_seconds histogram",
		"vanguard_attr_slots_total counter",
		"vanguard_bpred_studies_total counter",
		"vanguard_bpred_resolves_total counter",
		"vanguard_bpred_mispredicts_total counter",
		"vanguard_bpred_class_branches_total counter",
		"vanguard_bpred_class_execs_total counter",
		"vanguard_bpred_class_mispredicts_total counter",
		"vanguard_bpred_provider_use_total counter",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
