package sample

import (
	"testing"
)

// counters builds a cumulative snapshot that grew linearly to cycle n.
func counters(n int64) Counters {
	return Counters{
		Committed: 2 * n, Issued: 3 * n,
		BrMispredicts: n / 10, Resolves: n / 5, Predicts: n / 5,
		StallEmpty: n / 4, L1DMisses: n / 7,
	}
}

func TestWindowsTelescope(t *testing.T) {
	s := New(100, 16)
	var now int64
	for now = 100; now <= 1000; now += 100 {
		s.Record(now, counters(now), int(now/100))
	}
	final := counters(950)
	s.Flush(950, final, 3) // partial tail window after the last boundary...

	// (Flush at 950 < last Record at 1000 would be wrong usage; redo with a
	// clean sequence instead.)
	s = New(100, 16)
	for now = 100; now <= 900; now += 100 {
		s.Record(now, counters(now), int(now/100))
	}
	final = counters(950)
	s.Flush(950, final, 3)

	sr := s.Series()
	if sr.WindowCycles != 100 {
		t.Fatalf("WindowCycles = %d, want 100", sr.WindowCycles)
	}
	if len(sr.Windows) != 10 {
		t.Fatalf("got %d windows, want 10 (9 full + 1 partial)", len(sr.Windows))
	}
	var sum Counters
	var prevEnd int64
	for i, w := range sr.Windows {
		if w.Start != prevEnd {
			t.Fatalf("window %d starts at %d, want contiguous %d", i, w.Start, prevEnd)
		}
		prevEnd = w.End
		sum.Committed += w.Committed
		sum.Issued += w.Issued
		sum.BrMispredicts += w.BrMispredicts
		sum.Resolves += w.Resolves
		sum.Predicts += w.Predicts
		sum.StallEmpty += w.StallEmpty
		sum.L1DMisses += w.L1DMisses
	}
	if prevEnd != 950 {
		t.Errorf("last window ends at %d, want 950", prevEnd)
	}
	want := counters(950)
	if sum.Committed != want.Committed || sum.Issued != want.Issued ||
		sum.BrMispredicts != want.BrMispredicts || sum.Resolves != want.Resolves ||
		sum.StallEmpty != want.StallEmpty || sum.L1DMisses != want.L1DMisses {
		t.Errorf("window sums %+v do not telescope to the aggregates %+v", sum, want)
	}
	if sr.Windows[9].Cycles() != 50 {
		t.Errorf("partial window length = %d, want 50", sr.Windows[9].Cycles())
	}
}

func TestFlushNoOpWhenNothingHappened(t *testing.T) {
	s := New(100, 4)
	c := counters(100)
	s.Record(100, c, 1)
	s.Flush(100, c, 1) // same cycle, same counters: nothing to close
	if n := len(s.Series().Windows); n != 1 {
		t.Fatalf("%d windows after no-op flush, want 1", n)
	}
	// Same cycle but a counter moved (resolution work on the final cycle):
	// the flush must still record it so sums stay exact.
	c.Committed++
	s.Flush(100, c, 1)
	if n := len(s.Series().Windows); n != 2 {
		t.Fatalf("%d windows after counter-moving flush, want 2", n)
	}
	got := s.Series().Windows[1]
	if got.Committed != 1 || got.Cycles() != 0 {
		t.Errorf("zero-length flush window = %+v, want committed=1 cycles=0", got)
	}
}

func TestRingOverflowKeepsNewestOldestFirst(t *testing.T) {
	s := New(10, 4)
	for i := int64(1); i <= 7; i++ {
		s.Record(i*10, counters(i*10), 0)
	}
	sr := s.Series()
	if len(sr.Windows) != 4 {
		t.Fatalf("%d windows, want 4", len(sr.Windows))
	}
	if sr.Dropped != 3 {
		t.Errorf("Series.Dropped = %d, want 3", sr.Dropped)
	}
	wantStarts := []int64{30, 40, 50, 60}
	for i, w := range sr.Windows {
		if w.Start != wantStarts[i] {
			t.Errorf("window %d start = %d, want %d (oldest-first after wrap)", i, w.Start, wantStarts[i])
		}
	}
}

func TestDefaults(t *testing.T) {
	s := New(0, 0)
	if s.window != DefaultWindow {
		t.Errorf("window = %d, want %d", s.window, DefaultWindow)
	}
	if len(s.ring) != defaultCap {
		t.Errorf("cap = %d, want %d", len(s.ring), defaultCap)
	}
	if s.NextAt() != DefaultWindow {
		t.Errorf("NextAt = %d, want %d", s.NextAt(), DefaultWindow)
	}
}

// TestRecordDoesNotAllocate pins the sampler's hot-path contract: once
// constructed, closing windows (including ring wrap-around) is
// allocation-free, so sampling cannot break the simulator's steady-state
// zero-alloc gate.
func TestRecordDoesNotAllocate(t *testing.T) {
	s := New(10, 8)
	var now int64
	if allocs := testing.AllocsPerRun(1000, func() {
		now += 10
		s.Record(now, counters(now), 2)
	}); allocs != 0 {
		t.Fatalf("Record allocates: %v allocs/op", allocs)
	}
}

func TestSeriesValues(t *testing.T) {
	s := New(10, 8)
	s.Record(10, Counters{Committed: 5}, 0)
	s.Record(20, Counters{Committed: 25}, 0)
	vals := s.Series().Values(func(w *Window) float64 { return w.IPC() })
	if len(vals) != 2 || vals[0] != 0.5 || vals[1] != 2.0 {
		t.Errorf("IPC values = %v, want [0.5 2]", vals)
	}
}
