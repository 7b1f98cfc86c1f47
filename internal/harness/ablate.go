package harness

import (
	"fmt"
	"io"

	"vanguard/internal/metrics"
	"vanguard/internal/workload"
)

// Ablations validate the design choices the paper calls out:
//
//   - the 5% predictability-bias selection threshold ("this heuristic
//     provided the best overall performance", Section 5);
//   - the 16-entry DBB sizing ("16 entries were more than sufficient",
//     Section 4);
//   - the value of hoisting depth and of the condition-slice push-down
//     (Section 3's mini-transformations).

// AblationPoint is one configuration of a sweep with its geomean speedup.
type AblationPoint struct {
	Label      string
	SpeedupPct float64
}

// AblationBenchmarks is a representative cross-section used by the sweeps
// (hot, MLP-rich, memory-bound, and FP representatives).
func AblationBenchmarks() []string {
	return []string{"h264ref", "omnetpp", "mcf", "povray"}
}

// sweep runs |points| x |names| benchmark measurements as ONE engine job
// set — every simulation of the whole sweep shares the worker pool — and
// returns the geomean width-4 speedup per point, labelled.
func sweep(names []string, points []Options, labels []string) ([]AblationPoint, error) {
	jobs, err := sweepJobs(names, points)
	if err != nil {
		return nil, err
	}
	rs, err := runBenchJobs(jobs, points[0])
	if err != nil {
		return nil, err
	}
	return sweepPoints(names, labels, rs), nil
}

// sweepJobs enumerates a sweep's jobs, point-major.
func sweepJobs(names []string, points []Options) ([]*benchJob, error) {
	var jobs []*benchJob
	for _, o := range points {
		for _, n := range names {
			c, ok := workload.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %q", n)
			}
			jobs = append(jobs, newBenchJob(c, o))
		}
	}
	return jobs, nil
}

// sweepPoints aggregates the results of sweepJobs.
func sweepPoints(names, labels []string, rs []*BenchResult) []AblationPoint {
	out := make([]AblationPoint, len(labels))
	for pi := range labels {
		var ss []float64
		for ni := range names {
			ss = append(ss, rs[pi*len(names)+ni].SpeedupAllRefsPct(4))
		}
		out[pi] = AblationPoint{Label: labels[pi], SpeedupPct: metrics.GeomeanSpeedupPct(ss)}
	}
	return out
}

// SweepMinGap sweeps the selection threshold (paper: 5% is best).
func SweepMinGap(names []string, base Options, gaps []float64) ([]AblationPoint, error) {
	var points []Options
	var labels []string
	for _, g := range gaps {
		o := base
		o.Widths = []int{4}
		o.Core.MinGap = g
		points = append(points, o)
		labels = append(labels, fmt.Sprintf("gap>=%.0f%%", g*100))
	}
	return sweep(names, points, labels)
}

// SweepMaxHoist sweeps the hoisting depth; MaxHoist=0 isolates the benefit
// of the decomposition itself (earlier prediction point) from scheduling.
func SweepMaxHoist(names []string, base Options, depths []int) ([]AblationPoint, error) {
	var points []Options
	var labels []string
	for _, d := range depths {
		o := base
		o.Widths = []int{4}
		o.Core.MaxHoist = d
		points = append(points, o)
		labels = append(labels, fmt.Sprintf("hoist<=%d", d))
	}
	return sweep(names, points, labels)
}

// SweepDBBSize sweeps the Decomposed Branch Buffer depth. Undersized DBBs
// wrap before resolution, so resolve instructions train the wrong predictor
// entries — accuracy (and speedup) degrade, exactly why the paper sized it
// by measuring occupancy.
func SweepDBBSize(names []string, base Options, sizes []int) ([]AblationPoint, error) {
	var points []Options
	var labels []string
	for _, n := range sizes {
		o := base
		o.Widths = []int{4}
		o.DBBEntries = n
		points = append(points, o)
		labels = append(labels, fmt.Sprintf("dbb=%d", n))
	}
	return sweep(names, points, labels)
}

// SlicePushdownAblation compares the full transformation against one with
// the condition-slice push-down disabled.
func SlicePushdownAblation(names []string, base Options) ([]AblationPoint, error) {
	var points []Options
	var labels []string
	for _, off := range []bool{false, true} {
		o := base
		o.Widths = []int{4}
		o.Core.NoSlicePushdown = off
		points = append(points, o)
		label := "slice push-down ON"
		if off {
			label = "slice push-down OFF"
		}
		labels = append(labels, label)
	}
	return sweep(names, points, labels)
}

// WriteAblation renders a sweep.
func WriteAblation(w io.Writer, title string, pts []AblationPoint) {
	fmt.Fprintln(w, title)
	for _, p := range pts {
		fmt.Fprintf(w, "  %-22s %6.2f%%\n", p.Label, p.SpeedupPct)
	}
}
