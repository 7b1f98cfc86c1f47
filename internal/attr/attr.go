// Package attr implements simulation-time cycle attribution: a Yasin-style
// top-down accounting that charges every issue slot of every cycle to
// exactly one cause. The invariant the whole layer is built around (and
// that make attr-gate enforces) is conservation: summed over all causes,
// charged slots equal cycles × issue width, always.
//
// The Recorder is the hot-path half: flat preallocated arrays indexed by
// cause, static BranchID and static PC (the same indexing discipline as the
// pipeline's predecode table), so charging is a handful of integer adds and
// the simulator's zero-alloc steady-state gate is unaffected. The Report is
// the cold half: a compact, deterministic, JSON-serializable summary built
// once after the run, which the telemetry schema's `attribution` section
// and the offender tables render from.
package attr

import (
	"fmt"
	"sort"
)

// Cause enumerates the mutually exclusive reasons an issue slot can be
// spent. Every cycle the machine runs, each of its Width slots is charged
// to exactly one of these.
type Cause uint8

const (
	// Base is useful work: one slot per issued instruction (wrong-path
	// issues are re-charged to the flushing mispredict cause at squash).
	Base Cause = iota
	// Fetch is a front-end bubble with no more specific blame: the buffer
	// is empty or the head has not cleared the front-end depth yet.
	Fetch
	// ICache is a front-end stall on an instruction-cache miss.
	ICache
	// Exception is the injected handler penalty (pipeline drain + kernel
	// work stand-in) after an exceptional control-flow event.
	Exception
	// BrMispredict covers an ordinary BR misprediction: the wrong-path
	// slots it wasted plus the refill bubble until issue resumes, split by
	// the static BranchID of the mispredicted branch.
	BrMispredict
	// ResMispredict is the same for a RESOLVE firing (a decomposed branch
	// whose prediction was wrong), split by BranchID.
	ResMispredict
	// RetMispredict is a RAS target misprediction (no BranchID).
	RetMispredict
	// CondWait: the issue head is a BR (or its window contains one)
	// waiting on its condition operand, split by BranchID.
	CondWait
	// ResolveWindow: the blocked issue window contains a RESOLVE waiting
	// on its condition — the decomposed-branch analogue of CondWait,
	// split by BranchID.
	ResolveWindow
	// LoadWait: the head waits on an operand produced by an in-flight
	// load, split by the static PC of that load.
	LoadWait
	// OperandWait: the head waits on an operand from a non-load producer.
	OperandWait
	// FUContention: the head is ready but no functional unit is free.
	FUContention
	// DBBFull: front-end bubbles in cycles where the Decomposed Branch
	// Buffer is over capacity (outstanding predicts exceed DBBEntries, so
	// an entry was clobbered). Near zero at the paper's 16 entries; the
	// DBB-depth ablation makes it visible.
	DBBFull

	// NumCauses is the number of causes (array sizing).
	NumCauses
)

// keys are the stable snake_case identifiers of each cause — the telemetry
// schema's `attribution.slots` keys and the /metrics `cause` label values.
var keys = [NumCauses]string{
	Base:          "base",
	Fetch:         "fetch",
	ICache:        "icache",
	Exception:     "exception",
	BrMispredict:  "br_mispredict",
	ResMispredict: "res_mispredict",
	RetMispredict: "ret_mispredict",
	CondWait:      "cond_wait",
	ResolveWindow: "resolve_window",
	LoadWait:      "load_wait",
	OperandWait:   "operand_wait",
	FUContention:  "fu_contention",
	DBBFull:       "dbb_full",
}

// Key returns the cause's stable snake_case identifier.
func (c Cause) Key() string { return keys[c] }

// Causes returns every cause in charging order — the canonical segment
// order of a rendered CPI stack (base first, then front-end, control,
// data, structural).
func Causes() []Cause {
	out := make([]Cause, NumCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Recorder accumulates slot charges during a run. All storage is allocated
// by NewRecorder; ChargeCycles and MoveWrongPath never allocate. One
// recorder belongs to one machine (not safe for concurrent use).
type Recorder struct {
	width  int
	cycles int64
	total  [NumCauses]int64

	// Per static BranchID (index 0 = unassigned), preallocated flat.
	brMisp     []int64
	resMisp    []int64
	condWait   []int64
	resolveWin []int64
	// Per static PC of the producing load, preallocated flat.
	loadWait []int64

	dbbOverflows int64
}

// NewRecorder builds a recorder for a machine of the given issue width
// over an image with numPCs instructions whose largest static BranchID is
// maxBranchID.
func NewRecorder(numPCs, maxBranchID, width int) *Recorder {
	return &Recorder{
		width:      width,
		brMisp:     make([]int64, maxBranchID+1),
		resMisp:    make([]int64, maxBranchID+1),
		condWait:   make([]int64, maxBranchID+1),
		resolveWin: make([]int64, maxBranchID+1),
		loadWait:   make([]int64, numPCs),
	}
}

// ChargeCycles charges k identical cycles' worth of slots: in each,
// issued slots to Base and the remaining width-issued slots to cause. idx
// is the BranchID for the per-branch causes, the producing load's PC for
// LoadWait, and ignored otherwise.
func (r *Recorder) ChargeCycles(issued int, cause Cause, idx int, k int64) {
	r.cycles += k
	r.total[Base] += int64(issued) * k
	empty := int64(r.width-issued) * k
	if empty <= 0 {
		return
	}
	r.total[cause] += empty
	switch cause {
	case BrMispredict:
		r.brMisp[idx] += empty
	case ResMispredict:
		r.resMisp[idx] += empty
	case CondWait:
		r.condWait[idx] += empty
	case ResolveWindow:
		r.resolveWin[idx] += empty
	case LoadWait:
		r.loadWait[idx] += empty
	}
}

// MoveWrongPath re-charges n already-issued (Base) slots to the mispredict
// cause that squashed them, keeping the conservation invariant intact: the
// total never changes, blame just moves from Base to the flushing branch.
func (r *Recorder) MoveWrongPath(cause Cause, idx int, n int64) {
	if n <= 0 {
		return
	}
	r.total[Base] -= n
	r.total[cause] += n
	switch cause {
	case BrMispredict:
		r.brMisp[idx] += n
	case ResMispredict:
		r.resMisp[idx] += n
	}
}

// NoteDBBOverflow counts one PREDICT consumed while the DBB was already at
// capacity (an entry was clobbered).
func (r *Recorder) NoteDBBOverflow() { r.dbbOverflows++ }

// Totals returns the cumulative per-cause slot counts — the fixed-size
// snapshot the cycle-window sampler differences (arrays keep the sampler's
// Counters comparable).
func (r *Recorder) Totals() [NumCauses]int64 { return r.total }

// BranchRow is the attribution of one static BranchID: slots lost to its
// mispredictions (ordinary and resolve-fire) and slots the issue head
// spent waiting for its condition (plain BR or decomposed RESOLVE window).
type BranchRow struct {
	ID            int   `json:"id"`
	BrMispredict  int64 `json:"br_mispredict,omitempty"`
	ResMispredict int64 `json:"res_mispredict,omitempty"`
	CondWait      int64 `json:"cond_wait,omitempty"`
	ResolveWindow int64 `json:"resolve_window,omitempty"`
}

// MispredictSlots returns the row's misprediction slots (both kinds).
func (b *BranchRow) MispredictSlots() int64 { return b.BrMispredict + b.ResMispredict }

// TotalSlots returns every slot attributed to the branch.
func (b *BranchRow) TotalSlots() int64 {
	return b.BrMispredict + b.ResMispredict + b.CondWait + b.ResolveWindow
}

// LoadRow is the attribution of one static load PC: issue-head slots spent
// waiting for a value that load had not yet produced.
type LoadRow struct {
	PC    int   `json:"pc"`
	Slots int64 `json:"slots"`
}

// Report is the finished attribution of one run: sparse, deterministic
// (rows sorted by ID/PC, map keys sorted by encoding/json) and compact
// enough to live in the run cache and the telemetry schema's
// `attribution` section.
type Report struct {
	Width  int   `json:"width"`
	Cycles int64 `json:"cycles"`
	// Slots maps every cause key to its charged slot count (zero entries
	// included, so the stack's shape is stable across runs).
	Slots        map[string]int64 `json:"slots"`
	Branches     []BranchRow      `json:"branches,omitempty"`
	Loads        []LoadRow        `json:"loads,omitempty"`
	DBBOverflows int64            `json:"dbb_overflows,omitempty"`
}

// Report freezes the recorder into its serializable form.
func (r *Recorder) Report() *Report {
	rep := &Report{
		Width:        r.width,
		Cycles:       r.cycles,
		Slots:        make(map[string]int64, NumCauses),
		DBBOverflows: r.dbbOverflows,
	}
	for c := Cause(0); c < NumCauses; c++ {
		rep.Slots[c.Key()] = r.total[c]
	}
	for id := range r.brMisp {
		row := BranchRow{
			ID:            id,
			BrMispredict:  r.brMisp[id],
			ResMispredict: r.resMisp[id],
			CondWait:      r.condWait[id],
			ResolveWindow: r.resolveWin[id],
		}
		if row.TotalSlots() > 0 {
			rep.Branches = append(rep.Branches, row)
		}
	}
	for pc, n := range r.loadWait {
		if n > 0 {
			rep.Loads = append(rep.Loads, LoadRow{PC: pc, Slots: n})
		}
	}
	return rep
}

// SlotSum returns the total charged slots across all causes.
func (r *Report) SlotSum() int64 {
	var s int64
	for _, n := range r.Slots {
		s += n
	}
	return s
}

// Branch returns the row for a BranchID (zero row if absent).
func (r *Report) Branch(id int) BranchRow {
	for i := range r.Branches {
		if r.Branches[i].ID == id {
			return r.Branches[i]
		}
	}
	return BranchRow{ID: id}
}

// Check verifies the conservation invariants: per-cause slots sum to
// cycles × width, and the per-BranchID / per-PC splits sum back to their
// aggregate cause counters.
func (r *Report) Check() error {
	if got, want := r.SlotSum(), r.Cycles*int64(r.Width); got != want {
		return fmt.Errorf("attr: charged slots %d != cycles*width %d", got, want)
	}
	var br, res, cond, rw, ld int64
	for i := range r.Branches {
		b := &r.Branches[i]
		br += b.BrMispredict
		res += b.ResMispredict
		cond += b.CondWait
		rw += b.ResolveWindow
	}
	for i := range r.Loads {
		ld += r.Loads[i].Slots
	}
	for _, c := range []struct {
		key  string
		want int64
	}{
		{BrMispredict.Key(), br},
		{ResMispredict.Key(), res},
		{CondWait.Key(), cond},
		{ResolveWindow.Key(), rw},
		{LoadWait.Key(), ld},
	} {
		if r.Slots[c.key] != c.want {
			return fmt.Errorf("attr: per-ID %s slots %d != aggregate %d", c.key, c.want, r.Slots[c.key])
		}
	}
	return nil
}

// TopBranches returns the n branches costing the most slots, sorted by
// total attributed slots descending (ties by ID for determinism).
func (r *Report) TopBranches(n int) []BranchRow {
	out := append([]BranchRow(nil), r.Branches...)
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].TotalSlots(), out[j].TotalSlots(); a != b {
			return a > b
		}
		return out[i].ID < out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopLoads returns the n costliest load PCs, by slots descending (ties by
// PC).
func (r *Report) TopLoads(n int) []LoadRow {
	out := append([]LoadRow(nil), r.Loads...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slots != out[j].Slots {
			return out[i].Slots > out[j].Slots
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Stack returns the report's slot counts in canonical cause order — the
// segment values of a stacked CPI bar. Dividing by Width converts slots
// to cycles.
func (r *Report) Stack() []float64 {
	out := make([]float64, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		out[c] = float64(r.Slots[c.Key()])
	}
	return out
}
