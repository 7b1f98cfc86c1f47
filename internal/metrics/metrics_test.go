package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"vanguard/internal/core"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
)

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); got != 4 {
		t.Errorf("Geomean(2,8) = %f, want 4", got)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	if Geomean([]float64{1, -1}) != 0 {
		t.Error("non-positive values must yield 0")
	}
}

func TestGeomeanSpeedupPct(t *testing.T) {
	// Two runs at +10% and +21% -> ratios 1.1, 1.21 -> geomean 1.1537...
	got := GeomeanSpeedupPct([]float64{10, 21})
	want := (math.Sqrt(1.1*1.21) - 1) * 100
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %f, want %f", got, want)
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(110, 100); math.Abs(got-10) > 1e-9 {
		t.Errorf("110/100 cycles = %f%%, want 10", got)
	}
	if SpeedupPct(100, 0) != 0 {
		t.Error("zero experimental cycles must not divide")
	}
}

// Property: geomean lies between min and max of positive inputs.
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			v := math.Abs(r)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPDIHAndPHI(t *testing.T) {
	rep := &core.Report{Converted: []core.Converted{
		{ID: 1, HoistedB: 4, HoistedC: 2, BlockBSize: 8, BlockCSize: 4},
	}}
	prof := &profile.Profile{ByID: map[int]*profile.Branch{
		1: {ID: 1, Execs: 100, Taken: 50},
	}}
	// hoisted dynamic = 100 * (4*0.5 + 2*0.5) = 300; over 10_000 instrs = 3%.
	if got := PDIH(rep, prof, 10000); math.Abs(got-3) > 1e-9 {
		t.Errorf("PDIH = %f, want 3", got)
	}
	if got := PHI(rep); math.Abs(got-50) > 1e-9 {
		t.Errorf("PHI = %f, want 50 (6 of 12)", got)
	}
	if PDIH(rep, prof, 0) != 0 || PHI(&core.Report{}) != 0 {
		t.Error("degenerate inputs must be 0")
	}
}

func TestASPCB(t *testing.T) {
	rep := &core.Report{Converted: []core.Converted{{ID: 1}, {ID: 2}}}
	st := &pipeline.Stats{PerBranch: map[int]*pipeline.BranchStats{
		1: {Execs: 10, StallCycles: 100},
		2: {Execs: 10, StallCycles: 20},
	}}
	if got := ASPCB(rep, st); math.Abs(got-6) > 1e-9 {
		t.Errorf("ASPCB = %f, want 6 (120 stalls / 20 execs)", got)
	}
	if ASPCB(&core.Report{}, &pipeline.Stats{}) != 0 {
		t.Error("no converted branches must yield 0")
	}
}
