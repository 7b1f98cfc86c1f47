package harness

import (
	"strings"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/workload"
)

// fastOptions shrinks the inputs so harness tests stay quick while still
// exercising the full pipeline (profile -> transform -> simulate -> verify).
func fastOptions() Options {
	o := FastOptions()
	o.Widths = []int{4}
	return o
}

func TestRunBenchmarkEndToEnd(t *testing.T) {
	c, ok := workload.ByName("h264ref")
	if !ok {
		t.Fatal("missing benchmark")
	}
	r, err := RunBenchmark(c, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Inputs) != 2 || len(r.Inputs[0].Runs) != 1 {
		t.Fatalf("unexpected result shape: %d inputs", len(r.Inputs))
	}
	if len(r.Report.Converted) == 0 {
		t.Fatalf("h264ref must convert branches: %v", r.Report.Skipped)
	}
	if s := r.SpeedupAllRefsPct(4); s <= 0 {
		t.Errorf("h264ref speedup %.2f%%, want > 0", s)
	}
	if r.StaticExp <= r.StaticBase {
		t.Error("experimental binary must be larger")
	}
	row := r.Table2()
	if row.PBC <= 0 || row.PISCS <= 0 || row.MPPKI <= 0 {
		t.Errorf("degenerate Table 2 row: %+v", row)
	}
	if row.PDIH <= 0 || row.PHI <= 0 {
		t.Errorf("hoisting metrics empty: %+v", row)
	}
}

func TestVerificationCatchesNothingOnHealthyRun(t *testing.T) {
	// Verify=true is exercised above; this confirms Verify=false also runs.
	o := fastOptions()
	o.Verify = false
	c, _ := workload.ByName("libquantum")
	if _, err := RunBenchmark(c, o); err != nil {
		t.Fatal(err)
	}
}

func TestWidthsAndBestRef(t *testing.T) {
	o := fastOptions()
	o.Widths = []int{2, 4}
	c, _ := workload.ByName("perlbench")
	r, err := RunBenchmark(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Inputs[0].Runs) != 2 {
		t.Fatalf("want runs at two widths")
	}
	best := r.SpeedupBestRefPct(4)
	all := r.SpeedupAllRefsPct(4)
	if best < all {
		t.Errorf("best-ref speedup %.2f must be >= all-refs %.2f", best, all)
	}
}

func TestReportWriters(t *testing.T) {
	o := fastOptions()
	c, _ := workload.ByName("sjeng")
	r, err := RunBenchmark(c, o)
	if err != nil {
		t.Fatal(err)
	}
	results := []*BenchResult{r}

	var sb strings.Builder
	WriteTable2(&sb, results)
	if !strings.Contains(sb.String(), "sjeng") || !strings.Contains(sb.String(), "MPPKI") {
		t.Errorf("table 2 output malformed:\n%s", sb.String())
	}
	sb.Reset()
	WriteSpeedupFigure(&sb, "Figure 8", results, []int{4}, false)
	if !strings.Contains(sb.String(), "GEOMEAN") {
		t.Errorf("figure output missing geomean:\n%s", sb.String())
	}
	sb.Reset()
	WriteIssuedFigure(&sb, results)
	if !strings.Contains(sb.String(), "%") {
		t.Error("issued figure empty")
	}
	sb.Reset()
	WriteCSV(&sb, results, []int{4})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "name,suite") {
		t.Errorf("CSV malformed:\n%s", sb.String())
	}
}

func TestBiasPredictabilityCurve(t *testing.T) {
	cur, err := BiasPredictabilityCurve("int2006", workload.Input{Seed: 11, Iters: 1200}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Bias) != CurvePoints || len(cur.Predictability) != CurvePoints {
		t.Fatalf("curve must have %d points", CurvePoints)
	}
	// Bias is sorted descending per benchmark, so the averaged curve must
	// trend downward.
	if cur.Bias[0] < cur.Bias[CurvePoints-1] {
		t.Errorf("bias curve not descending: %.3f -> %.3f", cur.Bias[0], cur.Bias[CurvePoints-1])
	}
	// The paper's core observation: predictability stays above bias at the
	// low-bias end of the curve.
	tail := CurvePoints - 1
	if cur.Predictability[tail] <= cur.Bias[tail] {
		t.Errorf("predictability (%.3f) must exceed bias (%.3f) for unbiased branches",
			cur.Predictability[tail], cur.Bias[tail])
	}
	var sb strings.Builder
	cur.Write(&sb, "Figure 2")
	if !strings.Contains(sb.String(), "rank") {
		t.Error("curve rendering malformed")
	}
}

func TestResample(t *testing.T) {
	xs := []float64{1, 0}
	out := resample(xs, 5)
	want := []float64{1, 0.75, 0.5, 0.25, 0}
	for i := range want {
		if diff := out[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("resample = %v, want %v", out, want)
		}
	}
	if one := resample([]float64{7}, 3); one[0] != 7 || one[2] != 7 {
		t.Error("singleton resample wrong")
	}
}

func TestSensitivitySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity study is slow")
	}
	o := fastOptions()
	rows, err := Sensitivity([]string{"astar"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bpred.LadderSpecs()) {
		t.Fatalf("got %d rows", len(rows))
	}
	// The ladder must reduce baseline MPKI from bottom to top.
	if rows[len(rows)-1].MPKI >= rows[0].MPKI {
		t.Errorf("ISL-TAGE MPKI %.2f not below bimodal %.2f",
			rows[len(rows)-1].MPKI, rows[0].MPKI)
	}
	var sb strings.Builder
	WriteSensitivity(&sb, rows)
	if !strings.Contains(sb.String(), "per 1%") {
		t.Error("sensitivity slope missing")
	}
}

func TestICacheStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("icache study is slow")
	}
	o := fastOptions()
	// Single-benchmark suite slice via a custom run: reuse int2006's first.
	rows, err := RunICacheStudy("int2000", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Suite("int2000")) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// A 25% smaller I$ must not catastrophically slow these loopy
		// workloads (the paper reports <0.5% geomean; allow slack).
		if r.SlowdownPct > 5 {
			t.Errorf("%s: %0.2f%% slowdown from 24KB I$ is implausible", r.Benchmark, r.SlowdownPct)
		}
	}
	var sb strings.Builder
	WriteICacheStudy(&sb, rows)
	if !strings.Contains(sb.String(), "GEOMEAN") {
		t.Error("icache report malformed")
	}
}

func TestAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := fastOptions()
	names := []string{"h264ref"}

	hoist, err := SweepMaxHoist(names, o, []int{0, 12})
	if err != nil {
		t.Fatal(err)
	}
	if hoist[1].SpeedupPct <= hoist[0].SpeedupPct {
		t.Errorf("hoisting must help: depth-0 %.2f%% vs depth-12 %.2f%%",
			hoist[0].SpeedupPct, hoist[1].SpeedupPct)
	}
	slice, err := SlicePushdownAblation(names, o)
	if err != nil {
		t.Fatal(err)
	}
	if slice[0].SpeedupPct <= slice[1].SpeedupPct {
		t.Errorf("slice push-down must help: on %.2f%% vs off %.2f%%",
			slice[0].SpeedupPct, slice[1].SpeedupPct)
	}
	dbb, err := SweepDBBSize(names, o, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteAblation(&sb, "dbb", dbb)
	if !strings.Contains(sb.String(), "dbb=16") {
		t.Error("ablation rendering malformed")
	}
}

func TestMarkdownReport(t *testing.T) {
	o := fastOptions()
	c, _ := workload.ByName("milc")
	r, err := RunBenchmark(c, o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteMarkdownReport(&sb, map[string][]*BenchResult{"fp2006": {r}}, o.Widths)
	out := sb.String()
	for _, want := range []string{"# Branch Vanguard", "SPEC 2006 Floating Point", "| milc |", "**geomean**"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
