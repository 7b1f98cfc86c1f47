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
	hist       Hist

	// folds holds each tagged table's folded histories of hist, kept
	// current by PushHistory; width and mask are the four fold widths
	// (foldIdx, foldIdx1, foldTag, foldTag2) every table shares.
	folds []foldedHist
	width [4]uint
	mask  [4]uint64

	// idx and tags hold every tagged table's index and tag for the
	// (pc, history) pair of the current Predict or Update call: hashing
	// fills them once, and every later site of the call reads from here.
	// They are one row of memoIdx and memoTags (see useRow). Predictors
	// are per-machine, so the scratch needs no locking.
	idx  []uint64
	tags []uint16

	// memo remembers the hash of the last Predict at each of its slots,
	// keyed on the full (pc, Hist), so the Update that trains the same
	// pair reads it instead of folding m.Hist again. Row j of memoIdx and
	// memoTags is slot j's hash; the extra last row is where an Update
	// that misses the memo hashes.
	memo     []memoKey
	memoIdx  []uint64 // memoSlots+1 rows of len(tables) indices
	memoTags []uint16 // memoSlots+1 rows of len(tables) tags

	ticks int
	rng   uint64 // deterministic xorshift for allocation choice

	probe     *Probe
	probeBase int
	probeTab  []int
}

// The four folds of one table's history, in foldedHist.comp order: the
// index hash folds into logT and logT-1 bits, the tag hash into tagW and
// tagW-2 bits.
const (
	foldIdx = iota
	foldIdx1
	foldTag
	foldTag2
)

// foldedHist is one tagged table's circular-shift folded history
// (Seznec): comp[k] always equals hist.Fold(n, width[k]). Pushing an
// outcome rotates each register left by one within its width, xors the
// outcome in at bit 0 and xors out, at bit n mod width, the outcome that
// leaves the n-bit history, so a push costs O(1) per register however
// long the history.
type foldedHist struct {
	n      int      // history length, capped at 128 as Fold caps it
	outW   uint     // hist word of bit n-1, the bit the next push drops
	outB   uint     // its position in that word
	outPos [4]uint8 // n mod width[k]
	comp   [4]uint64
}

// memoKey tags one memo slot with the (pc, Hist) its row was hashed
// from. A slot no Predict has filled reads as pc 0 under the empty
// history with an all-zero row, which is that pair's true hash, so it
// needs no valid bit.
type memoKey struct {
	pc   uint64
	hist Hist
}

// memoSlots is the memo's size: a direct-mapped table of the most recent
// predictions, indexed by a multiplicative hash of (pc, Hist). At 64
// slots about 98.5% of the ladder's TAGE Updates hit; each halving of
// the size doubles the misses.
const (
	memoLog   = 6
	memoSlots = 1 << memoLog
)

func memoSlot(pc uint64, h Hist) int {
	return int((pc ^ h[0] ^ h[1]) * 0x9e3779b97f4a7c15 >> (64 - memoLog))
}

// NewTAGE builds a TAGE predictor: a 2^logBase bimodal base plus
// len(lens) tagged tables of 2^logT entries with tagW-bit tags and the
// given geometric history lengths. Lengths past the 128-bit history
// register fold as 128. It panics on a geometry whose folds would be
// empty: logT < 2, tagW < 3 or tagW > 16 (a tag is 16 bits), or a
// history length < 1.
func NewTAGE(logBase, logT, tagW int, lens []int) *TAGE {
	if logT < 2 || tagW < 3 || tagW > 16 {
		panic(fmt.Sprintf("bpred: TAGE geometry logT=%d tagW=%d, need logT >= 2 and 3 <= tagW <= 16", logT, tagW))
	}
	t := &TAGE{
		base:       make([]ctr2, 1<<logBase),
		baseMask:   uint64(1<<logBase - 1),
		choose:     make([]int8, 1<<12),
		chooseMask: uint64(1<<12 - 1),
		idxMask:    uint64(1<<logT - 1),
		logT:       logT,
		tagW:       tagW,
		folds:      make([]foldedHist, len(lens)),
		width:      [4]uint{uint(logT), uint(logT - 1), uint(tagW), uint(tagW - 2)},
		memo:       make([]memoKey, memoSlots),
		memoIdx:    make([]uint64, (memoSlots+1)*len(lens)),
		memoTags:   make([]uint16, (memoSlots+1)*len(lens)),
		rng:        0x9e3779b97f4a7c15,
	}
	for k, w := range t.width {
		t.mask[k] = 1<<w - 1
	}
	for i, n := range lens {
		if n < 1 {
			panic(fmt.Sprintf("bpred: TAGE history length %d, need >= 1", n))
		}
		n = min(n, 128)
		f := &t.folds[i]
		f.n, f.outW, f.outB = n, uint(n-1)>>6, uint(n-1)&63
		for k, w := range t.width {
			f.outPos[k] = uint8(uint(n) % w)
		}
	}
	t.useRow(memoSlots)
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

// useRow points the idx and tags scratch at row r of the memo.
func (t *TAGE) useRow(r int) {
	n := len(t.folds)
	t.idx = t.memoIdx[r*n : r*n+n : r*n+n]
	t.tags = t.memoTags[r*n : r*n+n : r*n+n]
}

// hash computes every tagged table's index and tag for pc under the
// current history, straight from the folded registers, into the idx and
// tags scratch.
func (t *TAGE) hash(pc uint64) {
	for i := range t.folds {
		t.hashTable(i, pc, &t.folds[i].comp)
	}
}

// hashHist is hash for an arbitrary history h, folded with Fold: the
// values the registers hold when h is the current history.
func (t *TAGE) hashHist(pc uint64, h Hist) {
	for i := range t.folds {
		c := t.fold(h, t.folds[i].n)
		t.hashTable(i, pc, &c)
	}
}

// fold returns h folded at length n into each of the four widths.
func (t *TAGE) fold(h Hist, n int) (c [4]uint64) {
	for k, w := range t.width {
		c[k] = h.Fold(n, int(w))
	}
	return c
}

// hashTable sets tagged table i's index and tag for pc from the table's
// four folds c.
func (t *TAGE) hashTable(i int, pc uint64, c *[4]uint64) {
	t.idx[i] = (pc ^ (pc >> uint(t.logT)) ^ c[foldIdx] ^ c[foldIdx1]<<1) & t.idxMask
	// The tag hash must stay decorrelated from the index hash (different
	// pc mixing and different fold widths), otherwise when tagW == logT a
	// slot's tag always equals its index and every lookup falsely matches.
	t.tags[i] = uint16((pc ^ pc>>3 ^ c[foldTag] ^ c[foldTag2]<<1) & t.mask[foldTag])
}

// confident reports whether a 3-bit counter is outside the weak band.
func confident(c int8) bool { return c >= 1 || c <= -2 }

// lookup scans the tagged tables, whose indices and tags for pc the
// caller has left in the scratch, from longest history to shortest.
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
func (t *TAGE) lookup(pc uint64) (pred, alt bool, provider int8, weak, tagged bool) {
	basePred := t.base[pc&t.baseMask].taken()
	pred, alt = basePred, basePred
	provider = -1
	havePred := false
	haveAlt := false
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

// Predict implements DirPredictor. It hashes from the folded registers
// into the memo row of (pc, history), for the Update that trains this
// prediction.
func (t *TAGE) Predict(pc uint64) (bool, Meta) {
	j := memoSlot(pc, t.hist)
	t.memo[j] = memoKey{pc, t.hist}
	t.useRow(j)
	t.hash(pc)
	pred, alt, provider, weak, _ := t.lookup(pc)
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

// Update implements DirPredictor. It points the scratch at the indices
// and tags of (pc, m.Hist): the memo row of the Predict that made m when
// that is still there, else the spare row, hashed by folding m.Hist (an
// evicted slot, or a Meta no Predict produced). Every site below reads
// them there.
func (t *TAGE) Update(pc uint64, taken bool, m Meta) {
	if j := memoSlot(pc, m.Hist); t.memo[j] == (memoKey{pc, m.Hist}) {
		t.useRow(j)
	} else {
		t.useRow(memoSlots)
		t.hashHist(pc, m.Hist)
	}
	_, alt, provider, _, _ := t.lookup(pc)
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

// PushHistory implements DirPredictor: it pushes the outcome into the
// history and into every folded register.
func (t *TAGE) PushHistory(taken bool) {
	in := b2u(taken)
	for i := range t.folds {
		f := &t.folds[i]
		out := t.hist[f.outW] >> f.outB & 1
		for k := range f.comp {
			c := f.comp[k]<<1 | in
			c ^= out << (f.outPos[k] & 63)
			c ^= c >> (t.width[k] & 63)
			f.comp[k] = c & t.mask[k]
		}
	}
	t.hist.Push(taken)
}

// Checkpoint implements DirPredictor.
func (t *TAGE) Checkpoint() Hist { return t.hist }

// Restore implements DirPredictor. The checkpoint holds only the history,
// so the folded registers are rebuilt from it with Fold; the pipeline
// restores only to repair a misprediction.
func (t *TAGE) Restore(h Hist) {
	t.hist = h
	for i := range t.folds {
		t.folds[i].comp = t.fold(h, t.folds[i].n)
	}
}

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
