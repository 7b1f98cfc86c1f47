// Package metrics computes the evaluation metrics of Table 2 and the
// aggregate statistics (geometric means of speedups) the paper reports.
package metrics

import (
	"math"

	"vanguard/internal/core"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
)

// Geomean returns the geometric mean of positive values; zero-length input
// returns 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeomeanSpeedupPct aggregates per-benchmark percentage speedups the way
// the paper does: geomean of the ratios, expressed as a percentage gain.
func GeomeanSpeedupPct(pcts []float64) float64 {
	ratios := make([]float64, len(pcts))
	for i, p := range pcts {
		ratios[i] = 1 + p/100
	}
	return (Geomean(ratios) - 1) * 100
}

// SpeedupPct converts baseline/experimental cycle counts to a % speedup.
func SpeedupPct(baseCycles, expCycles int64) float64 {
	if expCycles == 0 {
		return 0
	}
	return (float64(baseCycles)/float64(expCycles) - 1) * 100
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Name  string
	SPD   float64 // % speedup (geomean over REF inputs, 4-wide)
	PBC   float64 // % of static forward branches converted
	PDIH  float64 // avg % of dynamic instructions hoisted above converted branches
	ASPCB float64 // avg stall cycles per converted branch execution
	PHI   float64 // avg % of instructions hoistable from succeeding block
	MPPKI float64 // branch mispredictions per thousand instructions (baseline)
	PISCS float64 // % increase in static code size
}

// PDIH computes the dynamic-hoisted percentage from the transform report,
// the profile (for per-branch taken rates and execution counts), and the
// dynamic instruction count of the run.
func PDIH(rep *core.Report, prof *profile.Profile, dynInstrs int64) float64 {
	if dynInstrs == 0 {
		return 0
	}
	var hoisted float64
	for _, c := range rep.Converted {
		b := prof.ByID[c.ID]
		if b == nil {
			continue
		}
		t := b.TakenRate()
		hoisted += float64(b.Execs) * (float64(c.HoistedB)*(1-t) + float64(c.HoistedC)*t)
	}
	return 100 * hoisted / float64(dynInstrs)
}

// PHI computes the static hoistable fraction over converted branches.
func PHI(rep *core.Report) float64 {
	var hoisted, total int
	for _, c := range rep.Converted {
		hoisted += c.HoistedB + c.HoistedC
		total += c.BlockBSize + c.BlockCSize
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(hoisted) / float64(total)
}

// ASPCB computes average issue-head stall cycles per converted-branch
// execution from the experimental run's per-branch stats.
func ASPCB(rep *core.Report, st *pipeline.Stats) float64 {
	var stall, execs int64
	for _, c := range rep.Converted {
		if bs := st.PerBranch[c.ID]; bs != nil {
			stall += bs.StallCycles
			execs += bs.Execs
		}
	}
	if execs == 0 {
		return 0
	}
	return float64(stall) / float64(execs)
}
