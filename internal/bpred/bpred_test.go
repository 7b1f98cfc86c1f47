package bpred

import (
	"math/rand"
	"slices"
	"testing"
)

type event struct {
	pc    uint64
	taken bool
}

// accuracy runs the standard predict/push/update protocol over a trace.
func accuracy(p DirPredictor, trace []event) float64 {
	correct := 0
	for _, e := range trace {
		pred, meta := p.Predict(e.pc)
		if pred == e.taken {
			correct++
		}
		p.PushHistory(e.taken)
		p.Update(e.pc, e.taken, meta)
	}
	return float64(correct) / float64(len(trace))
}

// biasedTrace flips a coin with P(taken)=bias at one PC.
func biasedTrace(n int, pc uint64, bias float64, seed int64) []event {
	r := rand.New(rand.NewSource(seed))
	t := make([]event, n)
	for i := range t {
		t[i] = event{pc, r.Float64() < bias}
	}
	return t
}

// periodicTrace repeats a fixed taken/not-taken pattern at one PC.
func periodicTrace(n int, pc uint64, pattern []bool) []event {
	t := make([]event, n)
	for i := range t {
		t[i] = event{pc, pattern[i%len(pattern)]}
	}
	return t
}

func TestHistPushFold(t *testing.T) {
	var h Hist
	h.Push(true)
	h.Push(false)
	h.Push(true) // history (newest first): 1,0,1 -> bits 0b101
	if h[0] != 0b101 {
		t.Fatalf("history bits = %b, want 101", h[0])
	}
	if got := h.Fold(3, 3); got != 0b101 {
		t.Errorf("Fold(3,3) = %b, want 101", got)
	}
	if got := h.Fold(3, 2); got != (0b01 ^ 0b1) {
		t.Errorf("Fold(3,2) = %b, want chunked xor %b", got, 0b01^0b1)
	}
	if h.Fold(0, 4) != 0 || h.Fold(4, 0) != 0 {
		t.Error("degenerate folds must be zero")
	}
}

func TestHistPushCrossesWordBoundary(t *testing.T) {
	var h Hist
	h.Push(true)
	for i := 0; i < 64; i++ {
		h.Push(false)
	}
	if h[1]&1 != 1 {
		t.Error("oldest bit must have carried into the high word")
	}
	if h[0] != 0 {
		t.Errorf("low word = %b, want 0", h[0])
	}
	// Fold over 65 bits must see the carried bit.
	if h.Fold(65, 16) == 0 {
		t.Error("fold over 65 bits lost the high-word bit")
	}
}

func TestCtr2Saturation(t *testing.T) {
	c := ctr2(0)
	if c.dec() != 0 {
		t.Error("dec must saturate at 0")
	}
	for i := 0; i < 10; i++ {
		c = c.inc()
	}
	if c != 3 {
		t.Errorf("inc must saturate at 3, got %d", c)
	}
	if !c.taken() || ctr2(1).taken() {
		t.Error("taken threshold wrong")
	}
}

func TestStatic(t *testing.T) {
	nt := &Static{}
	pred, _ := nt.Predict(0x40)
	if pred {
		t.Error("static not-taken predicted taken")
	}
	tk := &Static{Taken: true}
	if pred, _ := tk.Predict(0x40); !pred {
		t.Error("static taken predicted not-taken")
	}
	if nt.SizeBits() != 0 || nt.Name() == tk.Name() {
		t.Error("static metadata wrong")
	}
}

// TestGShareLearnsPatternBimodalCannot drives one branch through a
// balanced periodic pattern: a per-PC counter sees only the 50% base
// rate, like the fixed predictor it is compared against, while gshare
// learns the pattern from the history.
func TestGShareLearnsPatternBimodalCannot(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true, false}
	trace := periodicTrace(30000, 0x400, pattern)
	sAcc := accuracy(&Static{}, trace)
	gAcc := accuracy(NewGShare(14, 12), trace)
	if gAcc < 0.98 {
		t.Errorf("gshare on short periodic pattern: %.3f, want ~1", gAcc)
	}
	if gAcc <= sAcc {
		t.Errorf("gshare (%.3f) must beat static (%.3f) on history-correlated branch", gAcc, sAcc)
	}
}

func TestTournamentTracksBestComponent(t *testing.T) {
	// Mixed workload: one heavily biased branch (bimodal's home turf,
	// gshare suffers cross-branch history pollution) plus one patterned
	// branch (gshare's home turf).
	r := rand.New(rand.NewSource(3))
	pattern := []bool{true, false, true, true, false, false}
	var trace []event
	k := 0
	for i := 0; i < 40000; i++ {
		if i%2 == 0 {
			trace = append(trace, event{0x100, r.Float64() < 0.98})
		} else {
			trace = append(trace, event{0x200, pattern[k%len(pattern)]})
			k++
		}
	}
	tAcc := accuracy(NewTournament(13, 12), trace)
	if tAcc < 0.95 {
		t.Errorf("tournament on mixed workload: %.3f, want >= 0.95", tAcc)
	}
}

func TestDefaultPredictorIs24KB(t *testing.T) {
	d := NewDefault()
	if got := d.SizeBits() / 8 / 1024; got != 24 {
		t.Errorf("default predictor size = %dKB, want 24KB (Table 1)", got)
	}
	if d.Name() != "gshare-3table" {
		t.Errorf("unexpected name %q", d.Name())
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// Period-31 pattern: too long for 12-16 bits of gshare history
	// indexing one table, easy for TAGE's long-history tables.
	pattern := make([]bool, 31)
	for i := range pattern {
		pattern[i] = i%3 == 0 || i%7 == 0
	}
	trace := periodicTrace(60000, 0x400, pattern)
	gAcc := accuracy(NewGShare(13, 10), trace)
	tAcc := accuracy(NewTAGE(12, 10, 9, []int{4, 8, 16, 32, 64}), trace)
	if tAcc < 0.95 {
		t.Errorf("TAGE on period-31 pattern: %.3f, want >= 0.95", tAcc)
	}
	if tAcc <= gAcc {
		t.Errorf("TAGE (%.3f) must beat short gshare (%.3f) on long pattern", tAcc, gAcc)
	}
}

func TestISLTAGELoopPredictor(t *testing.T) {
	// A loop with a constant 200 trip count: 199 taken, 1 not-taken.
	// No global-history predictor at these sizes catches the exit; the
	// loop predictor must.
	pattern := make([]bool, 200)
	for i := 0; i < 199; i++ {
		pattern[i] = true
	}
	trace := periodicTrace(80000, 0x400, pattern)
	isl := NewISLTAGE(12, 10, 9, []int{4, 8, 16, 32}, 6, 10)
	acc := accuracy(isl, trace)
	if acc < 0.995 {
		t.Errorf("ISL-TAGE on constant-trip loop: %.4f, want >= 0.995", acc)
	}
	plain := accuracy(NewTAGE(12, 10, 9, []int{4, 8, 16, 32}), trace)
	if acc <= plain {
		t.Errorf("loop predictor gave no benefit: isl %.4f vs tage %.4f", acc, plain)
	}
}

// TestOutOfPlaceUpdate exercises the DBB use case: updates are applied
// several branches late, with prediction-time history carried in Meta.
// Accuracy on a patterned branch must survive the delay.
func TestOutOfPlaceUpdate(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true, false}
	trace := periodicTrace(30000, 0x400, pattern)
	p := NewGShare(14, 12)
	type pending struct {
		pc    uint64
		taken bool
		meta  Meta
	}
	var q []pending
	correct := 0
	for _, e := range trace {
		pred, meta := p.Predict(e.pc)
		if pred == e.taken {
			correct++
		}
		p.PushHistory(e.taken)
		q = append(q, pending{e.pc, e.taken, meta})
		if len(q) > 8 { // drain with an 8-branch delay, like a DBB
			u := q[0]
			q = q[1:]
			p.Update(u.pc, u.taken, u.meta)
		}
	}
	acc := float64(correct) / float64(len(trace))
	if acc < 0.97 {
		t.Errorf("delayed-update gshare accuracy %.3f, want >= 0.97", acc)
	}
}

func TestCheckpointRestore(t *testing.T) {
	g := NewGShare(12, 10)
	g.PushHistory(true)
	g.PushHistory(false)
	ck := g.Checkpoint()
	g.PushHistory(true) // wrong-path history
	g.PushHistory(true)
	g.Restore(ck)
	if g.Checkpoint() != ck {
		t.Error("restore did not rewind history")
	}
}

func TestLadderMonotonicOnHardTrace(t *testing.T) {
	// A workload mixing biased, patterned, long-patterned, and loop
	// branches; each rung of the ladder should do at least roughly as
	// well as the one below (small regressions tolerated — these are
	// heuristic structures — but the top must clearly beat the bottom).
	r := rand.New(rand.NewSource(9))
	longPat := make([]bool, 37)
	for i := range longPat {
		longPat[i] = (i*i)%5 < 2
	}
	var trace []event
	k := 0
	for i := 0; i < 60000; i++ {
		switch i % 4 {
		case 0:
			trace = append(trace, event{0x100, r.Float64() < 0.9})
		case 1:
			trace = append(trace, event{0x200, k%8 < 3})
		case 2:
			trace = append(trace, event{0x300, longPat[k%len(longPat)]})
		default:
			trace = append(trace, event{0x400, k%50 != 49})
			k++
		}
	}
	var ladder []DirPredictor
	for _, spec := range LadderSpecs() {
		ladder = append(ladder, spec.New())
	}
	accs := make([]float64, len(ladder))
	for i, p := range ladder {
		accs[i] = accuracy(p, trace)
	}
	for i := 1; i < len(accs); i++ {
		if accs[i] < accs[i-1]-0.02 {
			t.Errorf("ladder rung %d (%s, %.3f) regressed vs rung %d (%.3f)",
				i, ladder[i].Name(), accs[i], i-1, accs[i-1])
		}
	}
	if accs[len(accs)-1] < accs[0]+0.01 {
		t.Errorf("top of ladder (%.3f) not better than bottom (%.3f)", accs[len(accs)-1], accs[0])
	}
	// Sizes must be increasing, as the study intends.
	for i := 1; i < len(ladder); i++ {
		if ladder[i].SizeBits() <= ladder[i-1].SizeBits() {
			t.Errorf("ladder sizes not increasing: %s %d <= %s %d",
				ladder[i].Name(), ladder[i].SizeBits(), ladder[i-1].Name(), ladder[i-1].SizeBits())
		}
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(4)
	if _, ok := b.Lookup(0x40); ok {
		t.Error("empty BTB hit")
	}
	b.Insert(0x40, 777)
	if tgt, ok := b.Lookup(0x40); !ok || tgt != 777 {
		t.Errorf("BTB lookup = %d,%v", tgt, ok)
	}
	// Conflict: same set, different tag.
	b.Insert(0x40+16, 888)
	if _, ok := b.Lookup(0x40); ok {
		t.Error("conflicting insert must evict")
	}
	if hits, misses := b.Lookups(); hits == 0 || misses == 0 {
		t.Errorf("lookups: %d hits, %d misses; want both", hits, misses)
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS pop must fail")
	}
	r.Push(10)
	r.Push(20)
	ck := r.Checkpoint()
	r.Push(30)
	if pc, ok := r.Pop(); !ok || pc != 30 {
		t.Errorf("pop = %d,%v want 30", pc, ok)
	}
	r.Restore(ck)
	if pc, ok := r.Pop(); !ok || pc != 20 {
		t.Errorf("after restore pop = %d,%v want 20", pc, ok)
	}
	// Wraparound: pushing more than capacity keeps the newest entries.
	r2 := NewRAS(2)
	for i := 1; i <= 5; i++ {
		r2.Push(i * 100)
	}
	if pc, _ := r2.Pop(); pc != 500 {
		t.Errorf("wrapped pop = %d, want 500", pc)
	}
	if pc, _ := r2.Pop(); pc != 400 {
		t.Errorf("wrapped pop = %d, want 400", pc)
	}
	if _, ok := r2.Pop(); ok {
		t.Error("RAS depth must cap at capacity")
	}
}

// TestWrongPathHistoryRepair drives the full speculative protocol the
// pipeline uses: push predicted outcomes at fetch, then on a misprediction
// restore the checkpoint and push the actual outcome. Accuracy on a
// patterned branch must match the clean (no wrong path) protocol.
func TestWrongPathHistoryRepair(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true, false}
	for _, name := range []string{"gshare", "tage"} {
		var p DirPredictor
		if name == "gshare" {
			p = NewGShare(14, 12)
		} else {
			p = NewTAGE(13, 10, 9, []int{4, 8, 16, 32})
		}
		correct := 0
		n := 20000
		for i := 0; i < n; i++ {
			actual := pattern[i%len(pattern)]
			ck := p.Checkpoint()
			pred, meta := p.Predict(0x400)
			p.PushHistory(pred) // speculative: push the PREDICTION
			if pred == actual {
				correct++
			} else {
				p.Restore(ck) // repair: rewind, push the actual outcome
				p.PushHistory(actual)
			}
			p.Update(0x400, actual, meta)
		}
		acc := float64(correct) / float64(n)
		if acc < 0.97 {
			t.Errorf("%s under speculative-history protocol: %.3f, want >= 0.97", name, acc)
		}
	}
}

// TestLadderSpecsFresh ensures each constructor yields independent state.
func TestLadderSpecsFresh(t *testing.T) {
	for _, spec := range LadderSpecs() {
		a, b := spec.New(), spec.New()
		a.PushHistory(true)
		a.Update(0x40, true, Meta{})
		if b.Checkpoint() != (Hist{}) {
			t.Errorf("%s: constructors share state", spec.Name)
		}
	}
}

// foldRef is the original per-bit chunked-xor fold, kept as the oracle
// for both of Fold's paths: the masked fast path taken when n <= 64 and
// w >= n, and the word-level chunk path taken otherwise.
func foldRef(h Hist, n, w int) uint64 {
	if n <= 0 || w <= 0 {
		return 0
	}
	var bits, acc uint64
	got := 0
	for i := 0; i < n; i++ {
		var b uint64
		if i < 64 {
			b = (h[0] >> i) & 1
		} else if i < 128 {
			b = (h[1] >> (i - 64)) & 1
		}
		bits |= b << got
		got++
		if got == w {
			acc ^= bits
			bits, got = 0, 0
		}
	}
	acc ^= bits
	return acc & ((1 << w) - 1)
}

func TestFoldFastPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	widths := []int{1, 5, 15, 16, 17, 32, 63, 64, 65, 100, 128}
	for trial := 0; trial < 200; trial++ {
		h := Hist{r.Uint64(), r.Uint64()}
		for _, n := range widths {
			for _, w := range widths {
				if got, want := h.Fold(n, w), foldRef(h, n, w); got != want {
					t.Fatalf("Fold(%d,%d) on %x = %x, reference %x", n, w, h, got, want)
				}
			}
		}
	}
}

// FuzzFoldMatchesReference checks Fold against the per-bit oracle on an
// arbitrary history for every n in 0..140 and w in 0..70, so both edges
// (n past the 128-bit register, w at and past the 64-bit word) are
// covered.
func FuzzFoldMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(^uint64(0), ^uint64(0), uint8(128), uint8(10))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(0xbf58476d1ce4e5b9), uint8(140), uint8(70))
	f.Add(uint64(0x8000000000000001), uint64(1), uint8(65), uint8(64))
	f.Fuzz(func(t *testing.T, lo, hi uint64, nb, wb uint8) {
		h := Hist{lo, hi}
		n, w := int(nb)%141, int(wb)%71
		if got, want := h.Fold(n, w), foldRef(h, n, w); got != want {
			t.Fatalf("Fold(%d,%d) on %x = %x, reference %x", n, w, h, got, want)
		}
	})
}

// TestTAGEGeometryPanics checks that NewTAGE and NewISLTAGE reject a
// geometry with an empty fold width (logT-1 < 1, tagW-2 < 1), a tag wider
// than its 16-bit field, or a history length < 1, and accept the edges.
func TestTAGEGeometryPanics(t *testing.T) {
	for _, g := range []struct {
		logT, tagW int
		lens       []int
		bad        bool
	}{
		{1, 8, []int{4}, true},
		{0, 8, []int{4}, true},
		{8, 2, []int{4}, true},
		{8, 17, []int{4}, true},
		{8, 8, []int{4, 0}, true},
		{8, 8, []int{-3}, true},
		{2, 3, []int{1, 2, 3, 128, 129, 1000}, false},
		{8, 16, []int{4}, false},
	} {
		for _, build := range []func(){
			func() { NewTAGE(4, g.logT, g.tagW, g.lens) },
			func() { NewISLTAGE(4, g.logT, g.tagW, g.lens, 4, 4) },
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				build()
				return false
			}()
			if panicked != g.bad {
				t.Errorf("logT=%d tagW=%d lens=%v: panicked=%v, want %v", g.logT, g.tagW, g.lens, panicked, g.bad)
			}
		}
	}
}

// FuzzFoldedHistoryMatchesFold checks TAGE's folded-history registers
// against Fold: on an arbitrary geometry (logT 2..10, tagW 3..16, up to
// eight history lengths 1..140, so lengths at or below a fold width and
// past the 128-bit register both occur) and after every call of an
// arbitrary PushHistory / Checkpoint / Restore sequence, every register
// must equal Fold of the current history at the table's length and the
// register's width, and hashing from the registers must equal hashing
// the history with Fold.
func FuzzFoldedHistoryMatchesFold(f *testing.F) {
	long := make([]byte, 400)
	for i := range long {
		long[i] = byte(i*37 + i>>3)
	}
	f.Add(uint8(11), uint8(10), []byte{4, 8, 16, 32, 64, 128}, long)
	f.Add(uint8(5), uint8(8), []byte{5, 11, 23, 47, 97, 130}, long)
	f.Add(uint8(0), uint8(0), []byte{1, 2, 3, 63, 64, 65, 127, 128}, long)
	f.Add(uint8(8), uint8(13), []byte{139, 140, 9}, []byte{3, 2, 1, 5, 6, 2, 7, 11, 3})
	f.Fuzz(func(t *testing.T, logT, tagW uint8, lens, ops []byte) {
		g := []int{1}
		if len(lens) > 0 {
			g = g[:0]
			for _, b := range lens[:min(len(lens), 8)] {
				g = append(g, 1+int(b)%140)
			}
		}
		tg := NewTAGE(4, 2+int(logT)%9, 3+int(tagW)%14, g)
		want := tg.Checkpoint()
		var cks []Hist
		check := func(step int) {
			if tg.Checkpoint() != want {
				t.Fatalf("step %d: history %x, want %x", step, tg.Checkpoint(), want)
			}
			for i, n := range g {
				for k, w := range tg.width {
					if got, fold := tg.folds[i].comp[k], want.Fold(n, int(w)); got != fold {
						t.Fatalf("step %d: table %d (n=%d) width %d: register %x, Fold %x", step, i, n, w, got, fold)
					}
				}
			}
			pc := uint64(step)*0x9e3779b97f4a7c15 | 1
			tg.hash(pc)
			idx, tags := append([]uint64(nil), tg.idx...), append([]uint16(nil), tg.tags...)
			tg.hashHist(pc, want)
			if !slices.Equal(idx, tg.idx) || !slices.Equal(tags, tg.tags) {
				t.Fatalf("step %d: register hash %x/%x, Fold hash %x/%x", step, idx, tags, tg.idx, tg.tags)
			}
		}
		check(-1)
		for i, b := range ops {
			switch b & 3 {
			case 0, 1:
				tg.PushHistory(b&4 != 0)
				want.Push(b&4 != 0)
			case 2:
				cks = append(cks, tg.Checkpoint())
			default:
				h := Hist{uint64(b) * 0x9e3779b97f4a7c15, ^uint64(b) * 0xbf58476d1ce4e5b9}
				if len(cks) > 0 && b&4 == 0 {
					h = cks[int(b>>3)%len(cks)]
				}
				tg.Restore(h)
				want = h
			}
			check(i)
		}
	})
}

// TestTAGEMemoKeysOnFullHistory updates with Metas whose (pc, Hist)
// shares a memo slot with a live prediction but differs from it in the
// low history word, the high word or the PC, and with the (0, empty
// history) pair an unfilled slot stands for: each Update must hash its
// own pair, exactly as folding it from scratch does.
func TestTAGEMemoKeysOnFullHistory(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		tg := NewTAGE(8, 7, 9, []int{3, 9, 27, 81, 130})
		for i := 0; i < 200; i++ {
			tg.PushHistory(r.Intn(2) == 1)
		}
		pc := uint64(r.Intn(1<<16)) * 4
		_, m := tg.Predict(pc)
		slot := memoSlot(pc, m.Hist)
		// Perturb one part of the key until the pair lands in the same
		// slot; trial 0 keeps the pair an unfilled slot stands for.
		upc, uh := uint64(0), Hist{}
		for trial > 0 && (upc == pc && uh == m.Hist || memoSlot(upc, uh) != slot) {
			upc, uh = pc, m.Hist
			switch trial % 3 {
			case 0:
				uh[0] = r.Uint64()
			case 1:
				uh[1] = r.Uint64()
			default:
				upc = uint64(r.Intn(1<<16)) * 4
			}
		}
		ref := NewTAGE(8, 7, 9, []int{3, 9, 27, 81, 130})
		ref.hashHist(upc, uh)
		um := m
		um.Hist = uh
		tg.Update(upc, true, um)
		if !slices.Equal(tg.idx, ref.idx) || !slices.Equal(tg.tags, ref.tags) {
			t.Fatalf("trial %d: Update(%#x, %x) read %x/%x, its hash is %x/%x", trial, upc, uh, tg.idx, tg.tags, ref.idx, ref.tags)
		}
	}
}
