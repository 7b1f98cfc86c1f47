package bpred

import (
	"fmt"
	"math"
	"sort"
)

// This file is the predictor observatory: a Probe attached to a
// DirPredictor turns the per-resolution metadata the pipeline already
// carries (Meta: provider table, alternate prediction, confidence band,
// loop hits) plus table-level events streamed by the predictors
// themselves (allocations, entry touches) into a StudyReport — per-table
// provider usage, allocation and aliasing counters, confidence
// accounting, table occupancy, and a per-static-branch outcome digest
// that classifies every branch as biased / regime-switching /
// effectively-random.
//
// The probe follows the repo's nil-hook contract (attr, sampler,
// pipeview, recorder): a nil *Probe costs one nil check per resolution
// and per predictor update, observation never steers, and all
// steady-state recording lands in storage preallocated at construction.

// Provider slot 0 is reserved for Meta.Provider == -1 (the TAGE base
// table); slot i+1 holds provider i. maxProviderSlots bounds the flat
// per-slot arrays: the deepest stock predictor has 6 tagged tables, so
// 16 retires any realistic ladder extension without heap growth.
const maxProviderSlots = 16

// Classification labels for the per-branch outcome digest.
const (
	// ClassBiased: the branch overwhelmingly goes one way — any counter
	// scheme captures it; decomposing it buys little.
	ClassBiased = "biased"
	// ClassRegime: the branch alternates between stable modes — its
	// outcome stream has exploitable structure (low conditional entropy
	// or long same-direction runs) that history predictors learn.
	ClassRegime = "regime-switching"
	// ClassRandom: no bias and no short-history structure — the branches
	// the paper argues only decomposition saves.
	ClassRandom = "effectively-random"
)

// Classification thresholds (on the per-branch digest): a branch is
// biased when max(taken, not-taken)/execs >= probeBiasMin; otherwise it
// is regime-switching when the 2-bit-history conditional outcome entropy
// falls below probeEntropyMax bits or the transition rate below
// probeTransitionMax (long same-direction runs); anything left is
// effectively random. The estimates are maximum-likelihood over the
// observed stream, so very short streams classify noisily — consumers
// should weight by Execs.
const (
	probeBiasMin       = 0.95
	probeEntropyMax    = 0.70
	probeTransitionMax = 0.10
)

// branchAcc is the steady-state per-static-branch accumulator: plain
// counters plus a 2-bit outcome context for the conditional-entropy
// estimate. Everything derived (bias, rates, entropy, class) is computed
// once at Report time.
type branchAcc struct {
	execs       int64
	taken       int64
	mispredicts int64
	transitions int64
	ctx         uint8 // last two outcomes, bit 0 most recent
	seen        uint8 // outcomes observed, saturating at 2 (context warm-up)
	ctxCounts   [4][2]int64
}

// aliasAcc tracks one predictor table's entry-granularity usage: which
// entries were ever touched by a committed-stream update, and how often
// an update landed on an entry last written by a different PC.
type aliasAcc struct {
	name      string
	lastPC    []uint64 // per-entry last PC + 1; 0 = never touched
	touched   int
	conflicts int64
	updates   int64
}

// Probe accumulates the observatory for one machine's direction
// predictor. Construct with NewProbe, wire predictor-side hooks with
// Attach, feed it the resolution stream with ObserveResolve, and render
// with Report. All methods are single-goroutine, matching the machine.
type Probe struct {
	branches []branchAcc

	resolves    int64
	updates     int64
	mispredicts int64

	providerUse     [maxProviderSlots]int64
	providerCorrect [maxProviderSlots]int64
	providerWeak    [maxProviderSlots]int64

	altDiffer  int64
	altCorrect int64

	loopHits    int64
	loopCorrect int64

	conf [2][2]int64 // [weak][correct]

	allocTried  int64
	allocPlaced int64

	providerNames []string
	alias         []aliasAcc
}

// NewProbe builds a probe sized for static branch IDs 0..maxBranchID;
// per-branch storage is preallocated so steady-state observation never
// allocates.
func NewProbe(maxBranchID int) *Probe {
	if maxBranchID < 0 {
		maxBranchID = 0
	}
	return &Probe{branches: make([]branchAcc, maxBranchID+1)}
}

// Attach wires the predictor's table-level event hooks into the probe:
// predictors implementing Observable stream allocation and entry-touch
// events from their Update path, and name their provider slots. A
// predictor without the interface still gets full Meta-level and
// per-branch accounting.
func (p *Probe) Attach(d DirPredictor) {
	if o, ok := d.(Observable); ok {
		o.AttachProbe(p)
	}
}

// Observable is implemented by predictors that can stream table-level
// events (entry touches for aliasing, allocation attempts) into an
// attached probe. AttachProbe must register the predictor's tables and
// provider-slot names and retain the probe for its Update path; hooks
// must cost one nil check when no probe is attached.
type Observable interface {
	AttachProbe(*Probe)
}

// Surveyor is implemented by predictors that can report end-of-run table
// occupancy. Survey walks the tables once (report time, not hot path).
type Surveyor interface {
	Survey() []TableSurvey
}

// setProviders names the provider slots: names[0] labels
// Meta.Provider == -1, names[i+1] labels provider i.
func (p *Probe) setProviders(names ...string) {
	p.providerNames = names
}

// registerTable adds an aliasing-tracked table and returns its handle
// for noteEntry. Called from AttachProbe (construction time), so the
// per-entry array allocation is outside the steady state.
func (p *Probe) registerTable(name string, entries int) int {
	p.alias = append(p.alias, aliasAcc{name: name, lastPC: make([]uint64, entries)})
	return len(p.alias) - 1
}

// noteEntry records a committed-stream update landing on entry idx of a
// registered table. Nil-safe so predictor hot paths can call it behind a
// single probe check.
func (p *Probe) noteEntry(table int, idx, pc uint64) {
	a := &p.alias[table]
	a.updates++
	switch prev := a.lastPC[idx]; {
	case prev == 0:
		a.touched++
	case prev != pc+1:
		a.conflicts++
	}
	a.lastPC[idx] = pc + 1
}

// noteAlloc records one TAGE allocation attempt (a mispredict wanting a
// longer-history entry) and whether a free slot was found.
func (p *Probe) noteAlloc(placed bool) {
	p.allocTried++
	if placed {
		p.allocPlaced++
	}
}

// ObserveResolve feeds one committed resolution into the observatory:
// the static branch ID, the actual outcome, whether the prediction was
// wrong, and the prediction-time Meta — nil when the resolution trained
// no predictor (a RESOLVE whose DBB entry was recycled or invalidated),
// in which case only the outcome stream and totals advance.
func (p *Probe) ObserveResolve(id int, taken, mispredict bool, meta *Meta) {
	p.resolves++
	if mispredict {
		p.mispredicts++
	}

	if id < 0 {
		id = 0
	}
	if id >= len(p.branches) {
		// Defensive growth: IDs are bounded by the instruction image at
		// construction, so this path is cold by design.
		grown := make([]branchAcc, id+1)
		copy(grown, p.branches)
		p.branches = grown
	}
	b := &p.branches[id]
	b.execs++
	outcome := 0
	if taken {
		b.taken++
		outcome = 1
	}
	if mispredict {
		b.mispredicts++
	}
	if b.seen > 0 && (b.ctx&1) != uint8(outcome) {
		b.transitions++
	}
	if b.seen >= 2 {
		b.ctxCounts[b.ctx][outcome]++
	}
	b.ctx = (b.ctx<<1 | uint8(outcome)) & 3
	if b.seen < 2 {
		b.seen++
	}

	if meta == nil {
		return
	}
	p.updates++
	correct := !mispredict
	slot := int(meta.Provider) + 1
	if slot < 0 {
		slot = 0
	} else if slot >= maxProviderSlots {
		slot = maxProviderSlots - 1
	}
	p.providerUse[slot]++
	if correct {
		p.providerCorrect[slot]++
	}
	if meta.Weak {
		p.providerWeak[slot]++
		if correct {
			p.conf[1][1]++
		} else {
			p.conf[1][0]++
		}
	} else if correct {
		p.conf[0][1]++
	} else {
		p.conf[0][0]++
	}
	if meta.AltPred != meta.TagePred {
		p.altDiffer++
		if meta.AltPred == taken {
			p.altCorrect++
		}
	}
	if meta.LoopHit {
		p.loopHits++
		if correct {
			p.loopCorrect++
		}
	}
}

// StudyReport is the observatory's wire form: the optional `bpredstudy`
// section of the telemetry report and the payload behind
// -bpred-report/-bpred-csv.
type StudyReport struct {
	Predictor string `json:"predictor"`
	SizeBits  int    `json:"size_bits,omitempty"`

	// Resolves counts every observed committed resolution (BR commits
	// plus RESOLVE commits); Updates counts the subset that trained the
	// predictor (prediction Meta was still available).
	Resolves    int64 `json:"resolves"`
	Updates     int64 `json:"updates"`
	Mispredicts int64 `json:"mispredicts"`

	Providers []ProviderReport `json:"providers,omitempty"`

	// Alternate-prediction accounting (TAGE family): of the updates where
	// the alternate disagreed with the tagged prediction, how often the
	// alternate was right.
	AltDiffer  int64 `json:"alt_differ,omitempty"`
	AltCorrect int64 `json:"alt_correct,omitempty"`

	// Loop-predictor accounting (ISL-TAGE).
	LoopHits    int64 `json:"loop_hits,omitempty"`
	LoopCorrect int64 `json:"loop_correct,omitempty"`

	// TAGE allocation churn: mispredictions that wanted a longer-history
	// entry, and how many found a free (u == 0) slot.
	AllocTried  int64 `json:"alloc_tried,omitempty"`
	AllocPlaced int64 `json:"alloc_placed,omitempty"`

	Confidence ConfidenceReport `json:"confidence"`

	Aliasing []AliasReport `json:"aliasing,omitempty"`
	Survey   []TableSurvey `json:"survey,omitempty"`

	Branches []BranchDigest         `json:"branches,omitempty"`
	Classes  map[string]ClassTotals `json:"classes,omitempty"`
}

// ProviderReport is one provider slot's usage: how often this table (or
// chooser arm) supplied the final prediction, how often it was right,
// and how often it was in the weak confidence band while providing.
type ProviderReport struct {
	Table   string `json:"table"`
	Use     int64  `json:"use"`
	Correct int64  `json:"correct"`
	Weak    int64  `json:"weak,omitempty"`
}

// ConfidenceReport is the 2x2 confidence matrix over predictor updates:
// the provider's confidence band at prediction time against the outcome.
type ConfidenceReport struct {
	ConfidentCorrect int64 `json:"confident_correct"`
	ConfidentWrong   int64 `json:"confident_wrong"`
	WeakCorrect      int64 `json:"weak_correct"`
	WeakWrong        int64 `json:"weak_wrong"`
}

// AliasReport is one table's entry-granularity usage from the
// committed-update stream: distinct entries touched, and updates landing
// on an entry last written by a different PC (destructive sharing).
type AliasReport struct {
	Name      string `json:"name"`
	Entries   int    `json:"entries"`
	Touched   int    `json:"touched"`
	Conflicts int64  `json:"conflicts"`
	Updates   int64  `json:"updates"`
}

// TableSurvey is one table's end-of-run occupancy: entries that moved
// off their reset state, and (where the structure has a confidence
// notion) how many of those sit in the weak band.
type TableSurvey struct {
	Name     string `json:"name"`
	Entries  int    `json:"entries"`
	Occupied int    `json:"occupied"`
	Weak     int    `json:"weak,omitempty"`
}

// BranchDigest is one static branch's outcome-stream summary and its
// predictability class.
type BranchDigest struct {
	ID          int   `json:"id"`
	Execs       int64 `json:"execs"`
	Taken       int64 `json:"taken"`
	Mispredicts int64 `json:"mispredicts"`
	// Bias is max(taken, not-taken) / execs in [0.5, 1].
	Bias float64 `json:"bias"`
	// TransitionRate is direction changes per opportunity (execs - 1).
	TransitionRate float64 `json:"transition_rate"`
	// Entropy is the conditional outcome entropy given the previous two
	// outcomes, in bits (0 = fully determined by 2-bit history, 1 = coin
	// flip even knowing it).
	Entropy float64 `json:"entropy"`
	Class   string  `json:"class"`
}

// ClassTotals aggregates one predictability class.
type ClassTotals struct {
	Branches    int   `json:"branches"`
	Execs       int64 `json:"execs"`
	Mispredicts int64 `json:"mispredicts"`
}

// MispredictRate is the branch's observed mispredict rate.
func (b *BranchDigest) MispredictRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Execs)
}

// classify applies the documented thresholds to one digest.
func classify(bias, transRate, entropy float64) string {
	switch {
	case bias >= probeBiasMin:
		return ClassBiased
	case entropy <= probeEntropyMax || transRate <= probeTransitionMax:
		return ClassRegime
	default:
		return ClassRandom
	}
}

// condEntropy estimates H(outcome | previous two outcomes) in bits from
// the context-conditioned outcome counts.
func condEntropy(counts *[4][2]int64) float64 {
	var total int64
	for ctx := range counts {
		total += counts[ctx][0] + counts[ctx][1]
	}
	if total == 0 {
		return 0
	}
	var h float64
	for ctx := range counts {
		n := counts[ctx][0] + counts[ctx][1]
		if n == 0 {
			continue
		}
		for _, c := range counts[ctx] {
			if c == 0 {
				continue
			}
			p := float64(c) / float64(n)
			h -= float64(n) / float64(total) * p * math.Log2(p)
		}
	}
	return h
}

// providerName labels a provider slot, falling back to generic names
// when the predictor did not register any.
func (p *Probe) providerName(slot int) string {
	if slot < len(p.providerNames) && p.providerNames[slot] != "" {
		return p.providerNames[slot]
	}
	if slot == 0 {
		return "base"
	}
	return fmt.Sprintf("p%d", slot-1)
}

// Report renders the accumulated observatory. The predictor names the
// report and, when it implements Surveyor, contributes end-of-run table
// occupancy. Report does not reset the probe.
func (p *Probe) Report(d DirPredictor) *StudyReport {
	r := &StudyReport{
		Resolves:    p.resolves,
		Updates:     p.updates,
		Mispredicts: p.mispredicts,
		AltDiffer:   p.altDiffer,
		AltCorrect:  p.altCorrect,
		LoopHits:    p.loopHits,
		LoopCorrect: p.loopCorrect,
		AllocTried:  p.allocTried,
		AllocPlaced: p.allocPlaced,
		Confidence: ConfidenceReport{
			ConfidentCorrect: p.conf[0][1],
			ConfidentWrong:   p.conf[0][0],
			WeakCorrect:      p.conf[1][1],
			WeakWrong:        p.conf[1][0],
		},
	}
	if d != nil {
		r.Predictor = d.Name()
		r.SizeBits = d.SizeBits()
		if s, ok := d.(Surveyor); ok {
			r.Survey = s.Survey()
		}
	}
	for slot := 0; slot < maxProviderSlots; slot++ {
		if p.providerUse[slot] == 0 {
			continue
		}
		r.Providers = append(r.Providers, ProviderReport{
			Table:   p.providerName(slot),
			Use:     p.providerUse[slot],
			Correct: p.providerCorrect[slot],
			Weak:    p.providerWeak[slot],
		})
	}
	for i := range p.alias {
		a := &p.alias[i]
		if a.updates == 0 {
			continue
		}
		r.Aliasing = append(r.Aliasing, AliasReport{
			Name:      a.name,
			Entries:   len(a.lastPC),
			Touched:   a.touched,
			Conflicts: a.conflicts,
			Updates:   a.updates,
		})
	}
	r.Classes = map[string]ClassTotals{}
	for id := range p.branches {
		b := &p.branches[id]
		if b.execs == 0 {
			continue
		}
		bias := float64(b.taken) / float64(b.execs)
		if bias < 0.5 {
			bias = 1 - bias
		}
		transRate := 0.0
		if b.execs > 1 {
			transRate = float64(b.transitions) / float64(b.execs-1)
		}
		ent := condEntropy(&b.ctxCounts)
		d := BranchDigest{
			ID:             id,
			Execs:          b.execs,
			Taken:          b.taken,
			Mispredicts:    b.mispredicts,
			Bias:           bias,
			TransitionRate: transRate,
			Entropy:        ent,
			Class:          classify(bias, transRate, ent),
		}
		r.Branches = append(r.Branches, d)
		ct := r.Classes[d.Class]
		ct.Branches++
		ct.Execs += b.execs
		ct.Mispredicts += b.mispredicts
		r.Classes[d.Class] = ct
	}
	sort.Slice(r.Branches, func(i, j int) bool { return r.Branches[i].ID < r.Branches[j].ID })
	return r
}

// Check verifies the observatory's conservation invariants: per-branch
// digests and per-class totals must both sum exactly to the report's
// resolution and misprediction totals, every classified branch must
// carry a known class, and the Meta-derived books (provider usage,
// confidence matrix) must each sum to the update count.
func (r *StudyReport) Check() error {
	var execs, misp int64
	for i := range r.Branches {
		b := &r.Branches[i]
		execs += b.Execs
		misp += b.Mispredicts
		switch b.Class {
		case ClassBiased, ClassRegime, ClassRandom:
		default:
			return fmt.Errorf("bpred study: branch %d has unknown class %q", b.ID, b.Class)
		}
		if b.Taken > b.Execs || b.Mispredicts > b.Execs {
			return fmt.Errorf("bpred study: branch %d digest inconsistent: %+v", b.ID, *b)
		}
	}
	if execs != r.Resolves {
		return fmt.Errorf("bpred study: branch execs sum %d != resolves %d", execs, r.Resolves)
	}
	if misp != r.Mispredicts {
		return fmt.Errorf("bpred study: branch mispredicts sum %d != total %d", misp, r.Mispredicts)
	}
	var cb int
	var ce, cm int64
	for _, ct := range r.Classes {
		cb += ct.Branches
		ce += ct.Execs
		cm += ct.Mispredicts
	}
	if cb != len(r.Branches) || ce != r.Resolves || cm != r.Mispredicts {
		return fmt.Errorf("bpred study: class totals (%d branches, %d execs, %d mispredicts) != (%d, %d, %d)",
			cb, ce, cm, len(r.Branches), r.Resolves, r.Mispredicts)
	}
	var use int64
	for _, pr := range r.Providers {
		use += pr.Use
		if pr.Correct > pr.Use || pr.Weak > pr.Use {
			return fmt.Errorf("bpred study: provider %s books inconsistent: %+v", pr.Table, pr)
		}
	}
	if use != r.Updates {
		return fmt.Errorf("bpred study: provider use sum %d != updates %d", use, r.Updates)
	}
	c := r.Confidence
	if got := c.ConfidentCorrect + c.ConfidentWrong + c.WeakCorrect + c.WeakWrong; got != r.Updates {
		return fmt.Errorf("bpred study: confidence matrix sum %d != updates %d", got, r.Updates)
	}
	if r.Updates > r.Resolves || r.Mispredicts > r.Resolves {
		return fmt.Errorf("bpred study: totals inconsistent: %d updates, %d mispredicts, %d resolves",
			r.Updates, r.Mispredicts, r.Resolves)
	}
	if r.AllocPlaced > r.AllocTried || r.AltCorrect > r.AltDiffer || r.LoopCorrect > r.LoopHits {
		return fmt.Errorf("bpred study: event books inconsistent: alloc %d/%d, alt %d/%d, loop %d/%d",
			r.AllocPlaced, r.AllocTried, r.AltCorrect, r.AltDiffer, r.LoopCorrect, r.LoopHits)
	}
	return nil
}

// CheckAgainst extends Check with the cross-layer conservation the gate
// pins: the classified branches' resolutions and mispredictions must
// equal the pipeline's own totals (CondBranches+Resolves and
// BrMispredicts+ResMispredicts respectively — RET mispredictions are RAS
// events and never reach the direction predictor).
func (r *StudyReport) CheckAgainst(resolves, mispredicts int64) error {
	if err := r.Check(); err != nil {
		return err
	}
	if r.Resolves != resolves {
		return fmt.Errorf("bpred study: observed %d resolutions, pipeline counted %d", r.Resolves, resolves)
	}
	if r.Mispredicts != mispredicts {
		return fmt.Errorf("bpred study: observed %d mispredictions, pipeline counted %d", r.Mispredicts, mispredicts)
	}
	return nil
}

// Class returns the digest for one branch ID, or nil.
func (r *StudyReport) Class(id int) *BranchDigest {
	i := sort.Search(len(r.Branches), func(i int) bool { return r.Branches[i].ID >= id })
	if i < len(r.Branches) && r.Branches[i].ID == id {
		return &r.Branches[i]
	}
	return nil
}
