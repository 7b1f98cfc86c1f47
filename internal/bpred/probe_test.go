package bpred

import (
	"math/rand"
	"testing"
)

// boolHist is the naive reference model for Hist: an explicit shift
// register of outcomes, newest first. It shares no code with Hist, so
// agreement is a real witness rather than an identity.
type boolHist []bool

func (b *boolHist) push(taken bool) {
	n := append(boolHist{taken}, *b...)
	if len(n) > 128 {
		n = n[:128]
	}
	*b = n
}

func (b boolHist) bit(i int) uint64 {
	if i < len(b) && b[i] {
		return 1
	}
	return 0
}

// fold folds the low n bits into w by chunked xor, built directly from
// the boolean stream.
func (b boolHist) fold(n, w int) uint64 {
	if n <= 0 || w <= 0 {
		return 0
	}
	var acc uint64
	for chunk := 0; chunk*w < n; chunk++ {
		var bits uint64
		for j := 0; j < w && chunk*w+j < n; j++ {
			bits |= b.bit(chunk*w+j) << j
		}
		acc ^= bits
	}
	return acc & ((1 << w) - 1)
}

// TestHistPushMatchesBoolReference is the Push word-boundary witness:
// after arbitrary outcome streams long enough to carry bits across the
// 64-bit word boundary many times, every one of the 128 retained bits
// must match the shift-register model.
func TestHistPushMatchesBoolReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var h Hist
	var ref boolHist
	for step := 0; step < 500; step++ {
		taken := r.Intn(2) == 1
		h.Push(taken)
		ref.push(taken)
		for i := 0; i < 128; i++ {
			var got uint64
			if i < 64 {
				got = (h[0] >> i) & 1
			} else {
				got = (h[1] >> (i - 64)) & 1
			}
			if got != ref.bit(i) {
				t.Fatalf("step %d: bit %d = %d, reference %d", step, i, got, ref.bit(i))
			}
		}
	}
}

// TestHistFoldSlowPathMatchesBoolReference is the Fold slow-path
// witness: for n > 64 (chunks spanning both words) and for n <= 64 with
// w < n (multiple chunks in the low word) the chunked xor must be
// bit-exact against the boolean-stream fold. The fast path is included
// as a control.
func TestHistFoldSlowPathMatchesBoolReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var h Hist
	var ref boolHist
	ns := []int{1, 2, 7, 13, 31, 63, 64, 65, 66, 96, 127, 128}
	ws := []int{1, 2, 3, 11, 12, 16, 31, 32, 63, 64}
	for step := 0; step < 300; step++ {
		taken := r.Intn(2) == 1
		h.Push(taken)
		ref.push(taken)
		if step%10 != 0 {
			continue
		}
		for _, n := range ns {
			for _, w := range ws {
				if got, want := h.Fold(n, w), ref.fold(n, w); got != want {
					t.Fatalf("step %d: Fold(%d,%d) = %#x, reference %#x (hist %x)",
						step, n, w, got, want, h)
				}
			}
		}
	}
}

// TestProbeConservation drives a synthetic resolution stream through a
// bare probe and requires every conservation invariant to hold, both
// internally (Check) and against externally tracked totals
// (CheckAgainst), including resolutions whose Meta was lost.
func TestProbeConservation(t *testing.T) {
	p := NewProbe(4)
	var resolves, misp int64
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		id := r.Intn(5)
		taken := r.Intn(2) == 1
		pred := r.Intn(4) != 0 // 75% correct
		mis := pred == false
		meta := &Meta{Pred: taken != mis, Weak: r.Intn(3) == 0, Provider: int8(r.Intn(3) - 1)}
		if i%17 == 0 {
			meta = nil // a RESOLVE whose DBB entry was recycled
		}
		p.ObserveResolve(id, taken, mis, meta)
		resolves++
		if mis {
			misp++
		}
	}
	rep := p.Report(nil)
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if err := rep.CheckAgainst(resolves, misp); err != nil {
		t.Fatalf("CheckAgainst: %v", err)
	}
	if rep.Updates >= rep.Resolves {
		t.Fatalf("meta-less resolutions not excluded from updates: %d/%d", rep.Updates, rep.Resolves)
	}
	if len(rep.Branches) != 5 {
		t.Fatalf("got %d branch digests, want 5", len(rep.Branches))
	}
}

// TestProbeClassification pins the three classes on streams built to
// land squarely in each: a heavily biased branch, two regime-switching
// shapes (long same-direction runs, and strict alternation — zero
// conditional entropy despite a 100% transition rate), and an
// LCG-random branch that neither bias nor 2-bit history explains.
func TestProbeClassification(t *testing.T) {
	p := NewProbe(4)
	meta := Meta{}
	rnd := uint32(12345)
	for i := 0; i < 4000; i++ {
		p.ObserveResolve(0, i%100 != 0, false, &meta) // 99% taken
		p.ObserveResolve(1, (i/200)%2 == 0, false, &meta)
		p.ObserveResolve(2, i%2 == 0, false, &meta)
		rnd = rnd*1664525 + 1013904223
		p.ObserveResolve(3, rnd>>31 == 1, false, &meta)
	}
	rep := p.Report(nil)
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	want := map[int]string{0: ClassBiased, 1: ClassRegime, 2: ClassRegime, 3: ClassRandom}
	for id, cls := range want {
		d := rep.Class(id)
		if d == nil {
			t.Fatalf("branch %d missing from report", id)
		}
		if d.Class != cls {
			t.Errorf("branch %d classified %q, want %q (bias %.3f trans %.3f entropy %.3f)",
				id, d.Class, cls, d.Bias, d.TransitionRate, d.Entropy)
		}
	}
	if got := rep.Classes[ClassRegime].Branches; got != 2 {
		t.Errorf("regime class totals: %d branches, want 2", got)
	}
}

// probeDrive runs the standard predictor protocol over a synthetic
// branch set with an attached probe, mirroring what the pipeline does at
// prediction and resolution, and returns the observed totals.
func probeDrive(d DirPredictor, p *Probe, iters int) (resolves, misp int64) {
	outcome := func(pc uint64, i int) bool {
		switch pc % 3 {
		case 0:
			return true // biased
		case 1:
			return (i/7)%2 == 0 // regime
		default:
			return (uint32(i)*2654435761)>>31 == 1 // hard
		}
	}
	pcs := []uint64{0x40, 0x44, 0x48, 0x4c, 0x81, 0x85}
	for i := 0; i < iters; i++ {
		pc := pcs[i%len(pcs)]
		pred, meta := d.Predict(pc)
		actual := outcome(pc, i)
		d.PushHistory(actual)
		d.Update(pc, actual, meta)
		p.ObserveResolve(int(pc%8), actual, pred != actual, &meta)
		resolves++
		if pred != actual {
			misp++
		}
	}
	return resolves, misp
}

// TestProbeTageTableEvents attaches the observatory to a TAGE predictor
// and requires the predictor-internal books (allocation churn, aliasing,
// survey occupancy, provider slots) to be populated and conserved after
// a real training run.
func TestProbeTageTableEvents(t *testing.T) {
	tg := NewTAGE(6, 6, 8, []int{4, 8, 16})
	p := NewProbe(8)
	p.Attach(tg)
	resolves, misp := probeDrive(tg, p, 8000)
	rep := p.Report(tg)
	if err := rep.CheckAgainst(resolves, misp); err != nil {
		t.Fatalf("CheckAgainst: %v", err)
	}
	if rep.Predictor != "tage" || rep.SizeBits != tg.SizeBits() {
		t.Errorf("report header wrong: %q %d", rep.Predictor, rep.SizeBits)
	}
	if rep.AllocTried == 0 {
		t.Error("no allocation attempts recorded despite mispredictions")
	}
	if rep.AllocPlaced > rep.AllocTried {
		t.Errorf("alloc books inconsistent: %d placed of %d tried", rep.AllocPlaced, rep.AllocTried)
	}
	var base *AliasReport
	for i := range rep.Aliasing {
		if rep.Aliasing[i].Name == "base" {
			base = &rep.Aliasing[i]
		}
	}
	if base == nil {
		t.Fatal("base table missing from aliasing books")
	}
	if base.Updates != resolves {
		t.Errorf("base table saw %d updates, want one per resolution (%d)", base.Updates, resolves)
	}
	if base.Touched == 0 || base.Touched > base.Entries {
		t.Errorf("base touched = %d of %d entries", base.Touched, base.Entries)
	}
	if len(rep.Survey) == 0 {
		t.Fatal("no survey rows")
	}
	for _, s := range rep.Survey {
		if s.Occupied > s.Entries || s.Weak > s.Occupied {
			t.Errorf("survey row %s inconsistent: %+v", s.Name, s)
		}
	}
	if len(rep.Providers) == 0 || rep.Providers[0].Table != "base" {
		t.Errorf("provider slots not named from the predictor: %+v", rep.Providers)
	}
}

// TestProbeTournamentChooserArms pins the chooser-arm balance surface:
// with an attached tournament predictor, provider slots are the named
// arms and their use counts sum to the update total.
func TestProbeTournamentChooserArms(t *testing.T) {
	tn := NewTournament(8, 8)
	p := NewProbe(8)
	p.Attach(tn)
	resolves, misp := probeDrive(tn, p, 6000)
	rep := p.Report(tn)
	if err := rep.CheckAgainst(resolves, misp); err != nil {
		t.Fatalf("CheckAgainst: %v", err)
	}
	var sum int64
	seen := map[string]bool{}
	for _, pr := range rep.Providers {
		seen[pr.Table] = true
		sum += pr.Use
	}
	if !seen["bimodal"] || !seen["gshare"] {
		t.Errorf("chooser arms not surfaced: %+v", rep.Providers)
	}
	if sum != rep.Updates {
		t.Errorf("arm use sums to %d, want %d", sum, rep.Updates)
	}
	names := map[string]bool{}
	for _, s := range rep.Survey {
		names[s.Name] = true
	}
	if !names["chooser"] {
		t.Errorf("chooser table missing from survey: %+v", rep.Survey)
	}
}

// TestProbeLadderAllRungs attaches a probe to every ladder predictor
// type, drives the full protocol, and requires conservation and a
// non-empty survey on each — no predictor gets to opt out silently.
func TestProbeLadderAllRungs(t *testing.T) {
	preds := []DirPredictor{
		NewGShare(8, 8), NewTournament(8, 8),
		NewTAGE(6, 6, 8, []int{4, 8, 16}),
		NewISLTAGE(6, 6, 8, []int{4, 8, 16}, 4, 6),
	}
	for _, d := range preds {
		p := NewProbe(8)
		p.Attach(d)
		resolves, misp := probeDrive(d, p, 4000)
		rep := p.Report(d)
		if err := rep.CheckAgainst(resolves, misp); err != nil {
			t.Errorf("%s: CheckAgainst: %v", d.Name(), err)
		}
		if len(rep.Survey) == 0 {
			t.Errorf("%s: no survey rows", d.Name())
		}
		if len(rep.Aliasing) == 0 {
			t.Errorf("%s: no aliasing books", d.Name())
		}
	}
}

// TestProbeSteadyStateZeroAllocs pins the allocation-free contract of
// the observation path itself: after warm-up, observing resolutions and
// training an attached ISL-TAGE predictor allocates nothing.
func TestProbeSteadyStateZeroAllocs(t *testing.T) {
	d := NewISLTAGE(6, 6, 8, []int{4, 8, 16}, 4, 6)
	p := NewProbe(8)
	p.Attach(d)
	probeDrive(d, p, 2000) // warm up
	i := 2000
	avg := testing.AllocsPerRun(50, func() {
		pc := uint64(0x40 + 4*(i%6))
		pred, meta := d.Predict(pc)
		actual := i%7 == 0
		d.PushHistory(actual)
		d.Update(pc, actual, meta)
		p.ObserveResolve(int(pc%8), actual, pred != actual, &meta)
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state observation allocates %.1f per resolution, want 0", avg)
	}
}
