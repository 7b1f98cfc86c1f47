package bpred

import "fmt"

// TAGE is a TAgged GEometric history length predictor (Seznec), the upper
// rungs of the Section 5.3 sensitivity ladder. ISL-TAGE composes TAGE with
// a loop predictor and a statistical corrector.

type tagEntry struct {
	ctr int8 // 3-bit signed saturating counter, taken when >= 0
	tag uint16
	u   uint8 // 2-bit useful counter
}

// TAGE is the tagged geometric-history predictor.
type TAGE struct {
	base     []ctr2
	baseMask uint64
	// choose arbitrates per-PC between the tagged prediction and the base
	// prediction: a 3-bit counter, tagged trusted only when >= 6. Heavily
	// noise-polluted global history — interleaved data-dependent branches —
	// can make history-indexed entries systematically worse than the base;
	// the asymmetric chooser bounds that loss (the role the statistical
	// corrector plays in ISL-TAGE) while still engaging the tagged tables
	// wherever they are clearly better.
	choose     []int8
	chooseMask uint64
	tables     [][]tagEntry
	idxMask    uint64
	logT       int
	tagW       int
	lens       []int
	hist       Hist

	// idx and tags hold every tagged table's index and tag for the
	// (pc, history) pair of the current Predict or Update call: lookup
	// hashes once, and every later site of the call reads from here.
	// Predictors are per-machine, so the scratch needs no locking.
	idx  []uint64
	tags []uint16

	ticks int
	rng   uint64 // deterministic xorshift for allocation choice

	probe     *Probe
	probeBase int
	probeTab  []int
}

// NewTAGE builds a TAGE predictor: a 2^logBase bimodal base plus
// len(lens) tagged tables of 2^logT entries with tagW-bit tags and the
// given geometric history lengths.
func NewTAGE(logBase, logT, tagW int, lens []int) *TAGE {
	t := &TAGE{
		base:       make([]ctr2, 1<<logBase),
		baseMask:   uint64(1<<logBase - 1),
		choose:     make([]int8, 1<<12),
		chooseMask: uint64(1<<12 - 1),
		idxMask:    uint64(1<<logT - 1),
		logT:       logT,
		tagW:       tagW,
		lens:       append([]int(nil), lens...),
		idx:        make([]uint64, len(lens)),
		tags:       make([]uint16, len(lens)),
		rng:        0x9e3779b97f4a7c15,
	}
	for i := range t.base {
		t.base[i] = 1
	}
	for i := range t.choose {
		t.choose[i] = 5 // just below the trust threshold
	}
	t.tables = make([][]tagEntry, len(lens))
	for i := range t.tables {
		t.tables[i] = make([]tagEntry, 1<<logT)
	}
	return t
}

// Name implements DirPredictor.
func (t *TAGE) Name() string { return "tage" }

// SizeBits implements DirPredictor.
func (t *TAGE) SizeBits() int {
	bits := len(t.base)*2 + len(t.choose)*3
	per := 3 + 2 + t.tagW
	for _, tb := range t.tables {
		bits += len(tb) * per
	}
	return bits
}

// hash computes every tagged table's index and tag for (pc, h) into the
// idx and tags scratch.
func (t *TAGE) hash(pc uint64, h Hist) {
	for i, n := range t.lens {
		t.idx[i] = (pc ^ (pc >> uint(t.logT)) ^ h.Fold(n, t.logT) ^ h.Fold(n, t.logT-1)<<1) & t.idxMask
		// The tag hash must stay decorrelated from the index hash
		// (different pc mixing and different fold widths), otherwise when
		// tagW == logT a slot's tag always equals its index and every
		// lookup falsely matches.
		t.tags[i] = uint16((pc ^ pc>>3 ^ h.Fold(n, t.tagW) ^ h.Fold(n, t.tagW-2)<<1) & (1<<t.tagW - 1))
	}
}

// confident reports whether a 3-bit counter is outside the weak band.
func confident(c int8) bool { return c >= 1 || c <= -2 }

// lookup hashes (pc, h) into the scratch, then scans the tagged tables
// from longest history to shortest.
//
//   - provider is the longest matching entry (it is trained, and drives
//     allocation decisions); -1 when only the base matched;
//   - pred is the prediction: the longest CONFIDENT match, falling back
//     to the base table. Deferring past weak entries keeps TAGE robust
//     when interleaved unpredictable branches litter the global history
//     with noise — a freshly allocated long-history entry never masks a
//     well-trained short-history or base prediction;
//   - alt is the prediction the machine would have made without the
//     provider (for useful-bit training).
func (t *TAGE) lookup(pc uint64, h Hist) (pred, alt bool, provider int8, weak, tagged bool) {
	basePred := t.base[pc&t.baseMask].taken()
	pred, alt = basePred, basePred
	provider = -1
	havePred := false
	haveAlt := false
	t.hash(pc, h)
	for i := len(t.tables) - 1; i >= 0; i-- {
		e := &t.tables[i][t.idx[i]]
		if e.tag != t.tags[i] {
			continue
		}
		first := provider == -1
		if first {
			provider = int8(i)
			weak = !confident(e.ctr)
		}
		if confident(e.ctr) {
			if !havePred {
				pred = e.ctr >= 0
				havePred = true
			}
			if !haveAlt && !first {
				alt = e.ctr >= 0
				haveAlt = true
			}
		}
	}
	// Arbitrate tagged vs base when they disagree.
	if havePred && pred != basePred && t.choose[pc&t.chooseMask] < 6 {
		pred = basePred
	}
	tagged = havePred
	return pred, alt, provider, weak, tagged
}

// Predict implements DirPredictor.
func (t *TAGE) Predict(pc uint64) (bool, Meta) {
	pred, alt, provider, weak, _ := t.lookup(pc, t.hist)
	return pred, Meta{Hist: t.hist, Pred: pred, Provider: provider, AltPred: alt, TagePred: pred, Weak: weak}
}

func (t *TAGE) next() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// AttachProbe implements Observable: the provider slots are the base
// table plus each tagged table (longest-history table last), and every
// table the committed update stream writes is aliasing-tracked.
func (t *TAGE) AttachProbe(p *Probe) {
	t.probe = p
	names := make([]string, len(t.tables)+1)
	names[0] = "base"
	for i := range t.tables {
		names[i+1] = fmt.Sprintf("tage%d", i+1)
	}
	p.setProviders(names...)
	t.probeBase = p.registerTable("base", len(t.base))
	t.probeTab = make([]int, len(t.tables))
	for i := range t.tables {
		t.probeTab[i] = p.registerTable(names[i+1], len(t.tables[i]))
	}
}

// Survey implements Surveyor. A tagged entry counts as occupied once any
// of its fields moved off the zero allocation state; it is weak while
// its counter sits in the low-confidence band.
func (t *TAGE) Survey() []TableSurvey {
	out := []TableSurvey{surveyCtr2("base", t.base, 1)}
	ch := TableSurvey{Name: "choose", Entries: len(t.choose)}
	for _, c := range t.choose {
		if c != 5 {
			ch.Occupied++
		}
	}
	out = append(out, ch)
	for i, tb := range t.tables {
		s := TableSurvey{Name: fmt.Sprintf("tage%d", i+1), Entries: len(tb)}
		for j := range tb {
			e := &tb[j]
			if e.ctr == 0 && e.tag == 0 && e.u == 0 {
				continue
			}
			s.Occupied++
			if !confident(e.ctr) {
				s.Weak++
			}
		}
		out = append(out, s)
	}
	return out
}

// Update implements DirPredictor. Its lookup leaves the indices and tags
// of (pc, m.Hist) in the scratch, and every site below reads them there.
func (t *TAGE) Update(pc uint64, taken bool, m Meta) {
	_, alt, provider, _, _ := t.lookup(pc, m.Hist)
	if t.probe != nil {
		t.probe.noteEntry(t.probeBase, pc&t.baseMask, pc)
		if provider >= 0 {
			t.probe.noteEntry(t.probeTab[provider], t.idx[provider], pc)
		}
	}

	// Train the tagged-vs-base chooser on disagreements, independent of
	// the chooser's own verdict.
	basePred := t.base[pc&t.baseMask].taken()
	taggedPred, haveTagged := basePred, false
	for i := len(t.tables) - 1; i >= 0; i-- {
		e := &t.tables[i][t.idx[i]]
		if e.tag == t.tags[i] && confident(e.ctr) {
			taggedPred, haveTagged = e.ctr >= 0, true
			break
		}
	}
	if haveTagged && taggedPred != basePred {
		ci := pc & t.chooseMask
		if taggedPred == taken {
			if t.choose[ci] < 7 {
				t.choose[ci]++
			}
		} else if t.choose[ci] > 0 {
			t.choose[ci]--
		}
	}

	if provider >= 0 {
		e := &t.tables[provider][t.idx[provider]]
		provPred := e.ctr >= 0
		if provPred == taken && alt != taken && e.u < 3 {
			e.u++
		}
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
	}
	// The base always trains: the chooser may route predictions to it at
	// any time, so it must track current behaviour (hybrid semantics)
	// rather than canonical TAGE's train-when-provider semantics.
	bi := pc & t.baseMask
	t.base[bi] = t.base[bi].train(taken)

	// Allocate a longer-history entry on a misprediction. The trigger uses
	// TAGE's own prediction (TagePred) so that corrector overrides layered
	// on top (ISL-TAGE) do not perturb table training.
	if m.TagePred != taken && int(provider) < len(t.tables)-1 {
		start := int(provider) + 1
		// Pick among free (u==0) slots pseudo-randomly, biased short.
		allocated := false
		r := t.next()
		for k := start; k < len(t.tables); k++ {
			i := k
			if r&1 == 1 && k+1 < len(t.tables) {
				i = k + 1
			}
			e := &t.tables[i][t.idx[i]]
			if e.u == 0 {
				e.tag = t.tags[i]
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				if t.probe != nil {
					// An allocation overwrites the slot, so it counts as an
					// entry touch for the aliasing books.
					t.probe.noteEntry(t.probeTab[i], t.idx[i], pc)
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for k := start; k < len(t.tables); k++ {
				e := &t.tables[k][t.idx[k]]
				if e.u > 0 {
					e.u--
				}
			}
		}
		if t.probe != nil {
			t.probe.noteAlloc(allocated)
		}
	}

	// Gracefully age useful counters.
	t.ticks++
	if t.ticks >= 1<<18 {
		t.ticks = 0
		for _, tb := range t.tables {
			for i := range tb {
				tb[i].u >>= 1
			}
		}
	}
}

// PushHistory implements DirPredictor.
func (t *TAGE) PushHistory(taken bool) { t.hist.Push(taken) }

// Checkpoint implements DirPredictor.
func (t *TAGE) Checkpoint() Hist { return t.hist }

// Restore implements DirPredictor.
func (t *TAGE) Restore(h Hist) { t.hist = h }

// loopEntry tracks a loop branch with a (nearly) constant trip count.
type loopEntry struct {
	tag      uint16
	pastIter uint16
	currIter uint16
	conf     uint8
	age      uint8
}

// ISLTAGE is TAGE augmented with a loop predictor and a statistical
// corrector, the top rung of the sensitivity ladder.
type ISLTAGE struct {
	*TAGE
	loops    []loopEntry
	loopMask uint64
	sc       []int8 // statistical corrector counters
	scMask   uint64

	probeLoop int
	probeSC   int
}

// NewISLTAGE builds the ISL-TAGE-class predictor.
func NewISLTAGE(logBase, logT, tagW int, lens []int, logLoop, logSC int) *ISLTAGE {
	return &ISLTAGE{
		TAGE:     NewTAGE(logBase, logT, tagW, lens),
		loops:    make([]loopEntry, 1<<logLoop),
		loopMask: uint64(1<<logLoop - 1),
		sc:       make([]int8, 1<<logSC),
		scMask:   uint64(1<<logSC - 1),
	}
}

// Name implements DirPredictor.
func (p *ISLTAGE) Name() string { return "isl-tage" }

// SizeBits implements DirPredictor.
func (p *ISLTAGE) SizeBits() int {
	return p.TAGE.SizeBits() + len(p.loops)*(16+16+16+8+8) + len(p.sc)*6
}

func (p *ISLTAGE) loopIndex(pc uint64) uint64 { return (pc ^ pc>>6) & p.loopMask }

// loopTag disambiguates branches that share a loop-table set; it hashes the
// PC bits above the index so that nearby instruction PCs (which are small
// integers in this ISA) stay distinct.
func (p *ISLTAGE) loopTag(pc uint64) uint16 {
	h := pc / (p.loopMask + 1)
	return uint16(h^(h>>10)) & 0x3ff
}

// Predict implements DirPredictor.
func (p *ISLTAGE) Predict(pc uint64) (bool, Meta) {
	pred, meta := p.TAGE.Predict(pc)
	// Loop predictor: on a confident loop, predict taken until the trip
	// count is reached, then not-taken once.
	le := &p.loops[p.loopIndex(pc)]
	if le.tag == p.loopTag(pc) && le.conf >= 3 && le.pastIter > 0 {
		meta.LoopHit = true
		pred = le.currIter < le.pastIter
	} else if meta.Weak {
		// Statistical corrector: only low-confidence (weak) TAGE
		// predictions may be overridden, when the per-(pc, direction)
		// counter says TAGE is systematically wrong in this context.
		i := (pc ^ b2u(meta.TagePred)) & p.scMask
		if p.sc[i] <= -8 {
			pred = !pred
		}
	}
	meta.Pred = pred
	return pred, meta
}

// AttachProbe implements Observable: the TAGE tables plus the loop
// table and the statistical corrector.
func (p *ISLTAGE) AttachProbe(pr *Probe) {
	p.TAGE.AttachProbe(pr)
	p.probeLoop = pr.registerTable("loop", len(p.loops))
	p.probeSC = pr.registerTable("sc", len(p.sc))
}

// Survey implements Surveyor.
func (p *ISLTAGE) Survey() []TableSurvey {
	out := p.TAGE.Survey()
	lp := TableSurvey{Name: "loop", Entries: len(p.loops)}
	for i := range p.loops {
		le := &p.loops[i]
		if *le == (loopEntry{}) {
			continue
		}
		lp.Occupied++
		if le.conf < 3 {
			lp.Weak++
		}
	}
	sc := TableSurvey{Name: "sc", Entries: len(p.sc)}
	for _, v := range p.sc {
		if v == 0 {
			continue
		}
		sc.Occupied++
		if v > -8 && v < 8 {
			sc.Weak++
		}
	}
	return append(out, lp, sc)
}

// Update implements DirPredictor.
func (p *ISLTAGE) Update(pc uint64, taken bool, m Meta) {
	le := &p.loops[p.loopIndex(pc)]
	if p.probe != nil && (le.tag == p.loopTag(pc) || m.Pred != taken) {
		// Both arms below write the loop entry (training a match, aging
		// or reallocating a mismatch on a mispredict).
		p.probe.noteEntry(p.probeLoop, p.loopIndex(pc), pc)
	}
	if le.tag == p.loopTag(pc) {
		if taken {
			if le.currIter < 0xffff {
				le.currIter++
			}
		} else {
			if le.pastIter == le.currIter {
				if le.conf < 7 {
					le.conf++
				}
			} else {
				le.pastIter = le.currIter
				le.conf = 0
			}
			le.currIter = 0
		}
	} else if m.Pred != taken {
		if le.age > 0 {
			le.age--
		} else {
			*le = loopEntry{tag: p.loopTag(pc), age: 7}
		}
	}

	// Statistical corrector training: mirror exactly the counter the
	// corrector consulted (weak predictions only).
	if m.Weak && !m.LoopHit {
		i := (pc ^ b2u(m.TagePred)) & p.scMask
		if p.probe != nil {
			p.probe.noteEntry(p.probeSC, i, pc)
		}
		if m.TagePred == taken {
			if p.sc[i] < 31 {
				p.sc[i]++
			}
		} else {
			if p.sc[i] > -32 {
				p.sc[i]--
			}
		}
	}

	p.TAGE.Update(pc, taken, m)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
