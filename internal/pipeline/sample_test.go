package pipeline

import (
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/sample"
)

// TestSamplerWindows is the tentpole acceptance gate: with sampling
// enabled, summing every counter over all recorded windows must equal
// the whole-run aggregate — the sampler's telescoping-delta contract,
// checked against a real simulation with branches, mispredictions,
// stalls and cache misses.
func TestSamplerWindows(t *testing.T) {
	for _, window := range []int64{64, 1000, 10_000} {
		prog, m := allocProbeProgram(20_000)
		cfg := DefaultConfig(4)
		cfg.SampleWindow = window
		mach := New(ir.MustLinearize(prog), m, cfg)
		stats, err := mach.Run()
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if stats.Samples == nil {
			t.Fatalf("window %d: Stats.Samples is nil with sampling enabled", window)
		}
		sr := stats.Samples
		if sr.WindowCycles != window {
			t.Errorf("window %d: WindowCycles = %d", window, sr.WindowCycles)
		}
		if sr.Dropped != 0 {
			t.Errorf("window %d: dropped %d windows on a short run", window, sr.Dropped)
		}
		if len(sr.Windows) == 0 {
			t.Fatalf("window %d: no windows recorded", window)
		}

		var sum sample.Counters
		var prevEnd int64
		maxDBB := 0
		for i := range sr.Windows {
			w := &sr.Windows[i]
			if w.Start != prevEnd {
				t.Fatalf("window %d: window %d not contiguous (start %d, want %d)",
					window, i, w.Start, prevEnd)
			}
			prevEnd = w.End
			sum.Committed += w.Committed
			sum.Issued += w.Issued
			sum.BrMispredicts += w.BrMispredicts
			sum.ResMispredicts += w.ResMispredicts
			sum.RetMispredicts += w.RetMispredicts
			sum.Resolves += w.Resolves
			sum.Predicts += w.Predicts
			sum.Flushes += w.Flushes
			sum.StallEmpty += w.StallEmpty
			sum.StallOperand += w.StallOperand
			sum.StallBranch += w.StallBranch
			sum.StallResolve += w.StallResolve
			sum.StallFU += w.StallFU
			sum.L1IMisses += w.L1IMisses
			sum.L1DMisses += w.L1DMisses
			sum.L2Misses += w.L2Misses
			if w.DBBHighWater > maxDBB {
				maxDBB = w.DBBHighWater
			}
		}
		if prevEnd != stats.Cycles {
			t.Errorf("window %d: last window ends at %d, run has %d cycles",
				window, prevEnd, stats.Cycles)
		}
		want := sample.Counters{
			Committed:      stats.Committed,
			Issued:         stats.Issued,
			BrMispredicts:  stats.BrMispredicts,
			ResMispredicts: stats.ResMispredicts,
			RetMispredicts: stats.RetMispredicts,
			Resolves:       stats.Resolves,
			Predicts:       stats.Predicts,
			Flushes:        stats.Flushes,
			StallEmpty:     stats.EmptyFetchCycles,
			StallOperand:   stats.OperandStallCycles,
			StallBranch:    stats.BranchStallCycles,
			StallResolve:   stats.ResolveStallCycles,
			StallFU:        stats.FUStallCycles,
			L1IMisses:      int64(mach.Hier.L1I.Misses),
			L1DMisses:      int64(mach.Hier.L1D.Misses),
			L2Misses:       int64(mach.Hier.L2.Misses),
		}
		if sum != want {
			t.Errorf("window %d: window sums\n%+v\ndo not equal whole-run aggregates\n%+v",
				window, sum, want)
		}
		if maxDBB != stats.MaxDBBOccupancy {
			t.Errorf("window %d: max per-window DBB high-water %d != MaxDBBOccupancy %d",
				window, maxDBB, stats.MaxDBBOccupancy)
		}
		if sum.BrMispredicts == 0 || sum.StallOperand == 0 {
			t.Errorf("window %d: probe program exercised no mispredicts/stalls (sums %+v)",
				window, sum)
		}
	}
}

// TestSteadyStateZeroAllocsWithSampling extends the zero-alloc gate to a
// sampling machine: closing windows every 1k cycles in the measurement
// loop must still not allocate (the ring is preallocated; Record is
// allocation-free).
func TestSteadyStateZeroAllocsWithSampling(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	cfg := DefaultConfig(4)
	cfg.SampleWindow = 1000
	mach := New(ir.MustLinearize(prog), m, cfg)
	checkSteadyZeroAllocs(t, mach, "sampling cycle loop")
	if len(mach.sampler.Series().Windows) == 0 {
		t.Fatal("no windows recorded during the measurement loop")
	}
}
