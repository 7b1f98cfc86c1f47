package pipeline

import (
	"math/rand"
	"testing"

	"vanguard/internal/attr"
	"vanguard/internal/ir"
)

// TestAttrInvariant is the tentpole acceptance gate: with attribution on,
// every issue slot of every cycle is charged to exactly one cause —
// summed over causes the slots equal cycles × width, the per-BranchID
// mispredict splits sum back to the aggregate mispredict-penalty
// counters, and base work equals committed instructions.
func TestAttrInvariant(t *testing.T) {
	var mispredicts, loadWaits int64
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)
		for _, w := range []int{2, 4, 8} {
			cfg := DefaultConfig(w)
			cfg.Attr = true
			if seed%2 == 1 {
				cfg.ExceptionEveryN = 512 // exercise the exception cause
			}
			mach := New(ir.MustLinearize(prog.Clone()), m.Clone(), cfg)
			stats, err := mach.Run()
			if err != nil {
				t.Fatalf("seed %d w%d: %v", seed, w, err)
			}
			rep := stats.Attr
			if rep == nil {
				t.Fatalf("seed %d w%d: Stats.Attr nil with attribution on", seed, w)
			}
			if err := rep.Check(); err != nil {
				t.Fatalf("seed %d w%d: %v", seed, w, err)
			}
			if rep.Cycles != stats.Cycles || rep.Width != w {
				t.Fatalf("seed %d w%d: attr covers %d cycles at width %d, stats say %d at %d",
					seed, w, rep.Cycles, rep.Width, stats.Cycles, w)
			}
			if got := rep.Slots[attr.Base.Key()]; got != stats.Committed {
				t.Fatalf("seed %d w%d: base slots %d != committed %d", seed, w, got, stats.Committed)
			}
			if stats.BrMispredicts > 0 && rep.Slots[attr.BrMispredict.Key()] == 0 {
				t.Fatalf("seed %d w%d: %d BR mispredicts but no slots charged to them",
					seed, w, stats.BrMispredicts)
			}
			mispredicts += rep.Slots[attr.BrMispredict.Key()]
			loadWaits += rep.Slots[attr.LoadWait.Key()]
		}
	}
	// The random programs must actually exercise the splits we claim to test.
	if mispredicts == 0 {
		t.Fatal("no slots ever charged to branch mispredicts")
	}
	if loadWaits == 0 {
		t.Fatal("no slots ever charged to load waits")
	}
}

// TestAttrWindows checks the optional per-window CPI stack: with sampling
// and attribution both on, per-cause deltas summed over all windows equal
// the whole-run attribution, and each window's slots sum to its cycle
// count times the width.
func TestAttrWindows(t *testing.T) {
	prog, m := allocProbeProgram(20_000)
	cfg := DefaultConfig(4)
	cfg.Attr = true
	cfg.SampleWindow = 1000
	mach := New(ir.MustLinearize(prog), m, cfg)
	stats, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples == nil || stats.Attr == nil {
		t.Fatal("sampling + attribution run missing a section")
	}
	checkAttrWindows(t, "allocprobe", stats, cfg.Width)
}

// TestSteadyStateZeroAllocsWithAttr re-runs the PR-3 allocation gate with
// attribution (and the sampler, whose ring also carries per-window attr
// stacks) enabled: charging must be free of allocation in steady state.
func TestSteadyStateZeroAllocsWithAttr(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	cfg := DefaultConfig(4)
	cfg.Attr = true
	cfg.SampleWindow = 1000
	mach := New(ir.MustLinearize(prog), m, cfg)
	checkSteadyZeroAllocs(t, mach, "attributed cycle loop")
}
