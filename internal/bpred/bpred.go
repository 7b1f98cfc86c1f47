// Package bpred implements the conditional branch direction predictors,
// branch target buffer, and return address stack of the vanguard machine.
//
// The default machine predictor matches Table 1 of the paper ("PTLSim
// default: GShare, 24 KB 3-table direction predictor"): a three-table
// combining predictor (bimodal + gshare + chooser). For the Section 5.3
// sensitivity study the package provides a ladder of ever-improving
// predictors culminating in a 64KB ISL-TAGE-class design (TAGE with a loop
// predictor and a statistical corrector).
//
// Global history is updated speculatively at prediction time; the
// Checkpoint/Restore pair lets the pipeline repair history on a
// misprediction, and Meta carries everything an out-of-place update (via
// the Decomposed Branch Buffer) needs to train the tables that produced
// the prediction. A checkpoint is the history alone: TAGE also keeps
// each table's folded histories, which PushHistory advances in O(1) and
// Restore rebuilds from the checkpoint with Hist.Fold.
package bpred

// Hist is the global branch history register: bit 0 is the most recent
// outcome. 128 bits is enough for the longest TAGE history length used.
type Hist [2]uint64

// Push shifts a new outcome into the history.
func (h *Hist) Push(taken bool) {
	carry := h[0] >> 63
	h[0] <<= 1
	if taken {
		h[0] |= 1
	}
	h[1] = h[1]<<1 | carry
}

// Fold compresses the low n bits of history into w bits by chunked xor,
// the standard TAGE index-folding construction: chunk k holds history
// bits [k*w, min((k+1)*w, n)), shifted down to bit 0, and the chunks are
// xored together. History past bit 127 reads as zero, and a chunk wider
// than 64 bits keeps only its low 64.
func (h Hist) Fold(n, w int) uint64 {
	if n <= 0 || w <= 0 {
		return 0
	}
	// Fast path: with at most one chunk (n <= w) over the low word, the
	// fold degenerates to masking the low n bits. This covers gshare and
	// the tournament (histBits <= 64 folded into w >= n).
	if n <= 64 && w >= n {
		if n == 64 {
			return h[0]
		}
		return h[0] & (1<<uint(n) - 1)
	}
	// Word path: clear the history past bit n once, then each chunk is
	// one shift pair across the two words and one mask, so a fold costs
	// O(n/w) word operations. The &63 on every shift count lets the
	// compiler drop its shift-overflow guard; the counts are in range.
	lo, hi := h[0], h[1]
	switch {
	case n < 64:
		lo, hi = lo&(1<<uint(n)-1), 0
	case n < 128:
		hi &= 1<<uint(n-64) - 1
	default:
		n = 128
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	var acc uint64
	s := 0
	for ; s < 64 && s < n; s += w {
		// hi<<1<<(63-s) is hi<<(64-s), which is 0 at s == 0.
		acc ^= (lo>>uint(s&63) | hi<<1<<uint((63-s)&63)) & mask
	}
	for ; s < n; s += w {
		acc ^= hi >> uint((s-64)&63) & mask
	}
	return acc
}

// Meta carries the prediction-time state a later Update needs to train the
// structures that produced the prediction. The paper's DBB stores 24 bits
// per entry (16 bits of table indices + 8 bits of metadata); our Meta is a
// behavioural superset — the DBB model accounts for the architected 24
// bits, while Meta carries the simulator-level equivalents.
type Meta struct {
	Hist     Hist // global history at prediction time
	Pred     bool // the direction predicted
	Provider int8 // TAGE provider table (-1 = base), chooser arm for tournament
	AltPred  bool // TAGE alternate prediction
	TagePred bool // TAGE's own prediction before any corrector override
	Weak     bool // the provider entry was newly allocated / low confidence
	LoopHit  bool // ISL-TAGE loop predictor supplied the prediction
}

// DirPredictor is a conditional branch direction predictor.
//
// Protocol: the front end calls Predict, pushes its chosen direction into
// history with PushHistory, and remembers a Checkpoint alongside the
// in-flight branch. At resolution, Update trains the tables with the
// actual outcome; on a misprediction the front end calls Restore with the
// branch's checkpoint and PushHistory with the actual outcome.
type DirPredictor interface {
	Name() string
	SizeBits() int // storage budget, for the ladder study
	Predict(pc uint64) (taken bool, meta Meta)
	Update(pc uint64, taken bool, meta Meta)
	PushHistory(taken bool)
	Checkpoint() Hist
	Restore(Hist)
}

// ctr2 is a 2-bit saturating counter; taken when >= 2.
type ctr2 uint8

// surveyCtr2 summarizes a 2-bit-counter table for the observatory:
// occupied entries have moved off their reset value; weak entries are
// occupied but sit in the central low-confidence band (1, 2).
func surveyCtr2(name string, t []ctr2, reset ctr2) TableSurvey {
	s := TableSurvey{Name: name, Entries: len(t)}
	for _, c := range t {
		if c == reset {
			continue
		}
		s.Occupied++
		if c == 1 || c == 2 {
			s.Weak++
		}
	}
	return s
}

func (c ctr2) taken() bool { return c >= 2 }
func (c ctr2) inc() ctr2 {
	if c < 3 {
		return c + 1
	}
	return c
}
func (c ctr2) dec() ctr2 {
	if c > 0 {
		return c - 1
	}
	return c
}
func (c ctr2) train(taken bool) ctr2 {
	if taken {
		return c.inc()
	}
	return c.dec()
}

// Static predicts a fixed direction; the paper's resolve instructions are
// statically predicted not-taken.
type Static struct{ Taken bool }

// Name implements DirPredictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-nottaken"
}

// SizeBits implements DirPredictor.
func (s *Static) SizeBits() int { return 0 }

// Predict implements DirPredictor.
func (s *Static) Predict(pc uint64) (bool, Meta) { return s.Taken, Meta{Pred: s.Taken} }

// Update implements DirPredictor.
func (s *Static) Update(pc uint64, taken bool, m Meta) {}

// PushHistory implements DirPredictor.
func (s *Static) PushHistory(bool) {}

// Checkpoint implements DirPredictor.
func (s *Static) Checkpoint() Hist { return Hist{} }

// Restore implements DirPredictor.
func (s *Static) Restore(Hist) {}

// GShare xors global history into the counter index.
type GShare struct {
	table    []ctr2
	mask     uint64
	histBits int
	hist     Hist

	probe   *Probe
	probeTb int
}

// NewGShare builds a gshare predictor with 2^logSize counters and the
// given history length.
func NewGShare(logSize, histBits int) *GShare {
	n := 1 << logSize
	t := make([]ctr2, n)
	for i := range t {
		t[i] = 1
	}
	return &GShare{table: t, mask: uint64(n - 1), histBits: histBits}
}

// Name implements DirPredictor.
func (g *GShare) Name() string { return "gshare" }

// SizeBits implements DirPredictor.
func (g *GShare) SizeBits() int { return len(g.table) * 2 }

func (g *GShare) index(pc uint64, h Hist) uint64 {
	return (pc ^ h.Fold(g.histBits, 64)) & g.mask
}

// Predict implements DirPredictor.
func (g *GShare) Predict(pc uint64) (bool, Meta) {
	t := g.table[g.index(pc, g.hist)].taken()
	return t, Meta{Hist: g.hist, Pred: t}
}

// Update implements DirPredictor. The prediction-time history carried in
// meta selects the counter, so out-of-place updates through the DBB train
// the entry that actually produced the prediction.
func (g *GShare) Update(pc uint64, taken bool, m Meta) {
	i := g.index(pc, m.Hist)
	if g.probe != nil {
		g.probe.noteEntry(g.probeTb, i, pc)
	}
	g.table[i] = g.table[i].train(taken)
}

// AttachProbe implements Observable.
func (g *GShare) AttachProbe(p *Probe) {
	g.probe = p
	p.setProviders("", "gshare")
	g.probeTb = p.registerTable("gshare", len(g.table))
}

// Survey implements Surveyor.
func (g *GShare) Survey() []TableSurvey {
	return []TableSurvey{surveyCtr2("gshare", g.table, 1)}
}

// PushHistory implements DirPredictor.
func (g *GShare) PushHistory(taken bool) { g.hist.Push(taken) }

// Checkpoint implements DirPredictor.
func (g *GShare) Checkpoint() Hist { return g.hist }

// Restore implements DirPredictor.
func (g *GShare) Restore(h Hist) { g.hist = h }

// Tournament is the Table 1 machine predictor: three equal tables —
// bimodal, gshare, and a chooser trained toward whichever component was
// right — totalling 24KB at the default logSize of 15 (3 × 32K × 2b).
type Tournament struct {
	bim      []ctr2
	gsh      []ctr2
	chooser  []ctr2 // >=2 selects gshare
	mask     uint64
	histBits int
	hist     Hist

	probe    *Probe
	probeBim int
	probeGsh int
}

// NewTournament builds the combining predictor; logSize counters per table.
func NewTournament(logSize, histBits int) *Tournament {
	n := 1 << logSize
	t := &Tournament{
		bim: make([]ctr2, n), gsh: make([]ctr2, n), chooser: make([]ctr2, n),
		mask: uint64(n - 1), histBits: histBits,
	}
	for i := 0; i < n; i++ {
		t.bim[i], t.gsh[i], t.chooser[i] = 1, 1, 2
	}
	return t
}

// NewDefault returns the Table 1 configuration: a 24KB three-table
// predictor (32K entries per table) with 16 bits of global history.
func NewDefault() *Tournament { return NewTournament(15, 16) }

// Name implements DirPredictor.
func (t *Tournament) Name() string { return "gshare-3table" }

// SizeBits implements DirPredictor.
func (t *Tournament) SizeBits() int { return (len(t.bim) + len(t.gsh) + len(t.chooser)) * 2 }

func (t *Tournament) gindex(pc uint64, h Hist) uint64 {
	return (pc ^ h.Fold(t.histBits, 64)) & t.mask
}

// Predict implements DirPredictor.
func (t *Tournament) Predict(pc uint64) (bool, Meta) {
	bi := pc & t.mask
	gi := t.gindex(pc, t.hist)
	useG := t.chooser[bi].taken()
	var pred bool
	var provider int8
	if useG {
		pred, provider = t.gsh[gi].taken(), 1
	} else {
		pred, provider = t.bim[bi].taken(), 0
	}
	return pred, Meta{Hist: t.hist, Pred: pred, Provider: provider}
}

// Update implements DirPredictor.
func (t *Tournament) Update(pc uint64, taken bool, m Meta) {
	bi := pc & t.mask
	gi := t.gindex(pc, m.Hist)
	if t.probe != nil {
		t.probe.noteEntry(t.probeBim, bi, pc)
		t.probe.noteEntry(t.probeGsh, gi, pc)
	}
	bRight := t.bim[bi].taken() == taken
	gRight := t.gsh[gi].taken() == taken
	if bRight != gRight {
		t.chooser[bi] = t.chooser[bi].train(gRight)
	}
	t.bim[bi] = t.bim[bi].train(taken)
	t.gsh[gi] = t.gsh[gi].train(taken)
}

// AttachProbe implements Observable. The provider-slot names make the
// observatory's chooser-arm balance legible: Meta.Provider selects the
// arm, so providerUse["bimodal"] vs providerUse["gshare"] is exactly the
// chooser's runtime routing.
func (t *Tournament) AttachProbe(p *Probe) {
	t.probe = p
	p.setProviders("", "bimodal", "gshare")
	t.probeBim = p.registerTable("bimodal", len(t.bim))
	t.probeGsh = p.registerTable("gshare", len(t.gsh))
}

// Survey implements Surveyor.
func (t *Tournament) Survey() []TableSurvey {
	return []TableSurvey{
		surveyCtr2("bimodal", t.bim, 1),
		surveyCtr2("gshare", t.gsh, 1),
		surveyCtr2("chooser", t.chooser, 2),
	}
}

// PushHistory implements DirPredictor.
func (t *Tournament) PushHistory(taken bool) { t.hist.Push(taken) }

// Checkpoint implements DirPredictor.
func (t *Tournament) Checkpoint() Hist { return t.hist }

// Restore implements DirPredictor.
func (t *Tournament) Restore(h Hist) { t.hist = h }
