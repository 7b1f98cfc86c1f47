// Package sample implements the cycle-window time-series sampler: every N
// simulated cycles the pipeline closes a "window" recording how much each
// key counter moved during that interval, so phase behaviour — IPC
// collapses, misprediction clusters, DBB fill — is visible *inside* a run
// rather than only as whole-run aggregates.
//
// The sampler is built for the simulator's allocation-free hot path: the
// window ring is preallocated at construction and Record never allocates,
// so attaching a sampler cannot perturb the zero-alloc steady-state gate.
// When the ring fills, the oldest windows are overwritten (and counted as
// dropped), mirroring the trace.Ring post-mortem discipline.
//
// Windows telescope: each one stores deltas against the previous boundary
// snapshot, so the sum of any counter over all recorded windows equals the
// whole-run aggregate (TestSamplerWindows in internal/pipeline pins this).
package sample

import "vanguard/internal/attr"

// Counters is the cumulative counter snapshot the pipeline hands the
// sampler at each window boundary. The sampler differences consecutive
// snapshots; the pipeline never computes deltas itself.
type Counters struct {
	Committed      int64
	Issued         int64
	BrMispredicts  int64
	ResMispredicts int64
	RetMispredicts int64
	Resolves       int64
	Predicts       int64
	Flushes        int64

	// Issue-head fetch-stall breakdown (cumulative stall cycles by cause).
	StallEmpty   int64
	StallOperand int64
	StallBranch  int64
	StallResolve int64
	StallFU      int64

	// Memory-system demand misses by level.
	L1IMisses int64
	L1DMisses int64
	L2Misses  int64

	// Attr is the cumulative per-cause slot attribution (all zero unless
	// the machine runs with attribution). A fixed-size array keeps
	// Counters comparable, which Flush's no-movement check relies on.
	Attr [attr.NumCauses]int64
}

// Window is one recorded interval: cycles [Start, End), counter deltas
// over that interval, and the DBB occupancy high-water observed inside it.
// Field names are the stable snake_case keys of the telemetry schema's
// samples section.
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`

	Committed      int64 `json:"committed"`
	Issued         int64 `json:"issued"`
	BrMispredicts  int64 `json:"br_mispredicts"`
	ResMispredicts int64 `json:"res_mispredicts"`
	RetMispredicts int64 `json:"ret_mispredicts"`
	Resolves       int64 `json:"resolves"`
	Predicts       int64 `json:"predicts"`
	Flushes        int64 `json:"flushes"`

	StallEmpty   int64 `json:"stall_empty"`
	StallOperand int64 `json:"stall_operand"`
	StallBranch  int64 `json:"stall_branch"`
	StallResolve int64 `json:"stall_resolve"`
	StallFU      int64 `json:"stall_fu"`

	L1IMisses int64 `json:"l1i_misses"`
	L1DMisses int64 `json:"l1d_misses"`
	L2Misses  int64 `json:"l2_misses"`

	DBBHighWater int `json:"dbb_high_water"`

	// Attr holds the window's per-cause issue-slot deltas in attr.Causes
	// order — the per-window CPI stack. Present only when the producing
	// machine sampled with attribution enabled.
	Attr []int64 `json:"attr,omitempty"`
}

// Cycles returns the window length.
func (w *Window) Cycles() int64 { return w.End - w.Start }

// IPC returns committed instructions per cycle within the window.
func (w *Window) IPC() float64 {
	if c := w.Cycles(); c > 0 {
		return float64(w.Committed) / float64(c)
	}
	return 0
}

// Mispredicts returns all misprediction kinds summed.
func (w *Window) Mispredicts() int64 {
	return w.BrMispredicts + w.ResMispredicts + w.RetMispredicts
}

// Series is the finished time series a run exports: the configured window
// length, how many early windows the bounded ring overwrote, and the
// retained windows oldest-first.
type Series struct {
	WindowCycles int64    `json:"window_cycles"`
	Dropped      int64    `json:"dropped,omitempty"`
	Windows      []Window `json:"windows"`
}

// Values extracts one float64 per window via f — the shape the textplot
// sparklines and CSV writers consume.
func (s *Series) Values(f func(*Window) float64) []float64 {
	out := make([]float64, len(s.Windows))
	for i := range s.Windows {
		out[i] = f(&s.Windows[i])
	}
	return out
}

// DefaultWindow is the window length (cycles) CLIs use when sampling is
// requested without an explicit size.
const DefaultWindow = 10_000

// defaultCap bounds the preallocated ring: at the default window this
// retains the last ~41M cycles of any run before overwriting.
const defaultCap = 4096

// Sampler accumulates windows into a preallocated ring. One sampler
// belongs to one machine (it is not safe for concurrent use, matching the
// one-machine-per-goroutine contract).
type Sampler struct {
	window  int64
	nextAt  int64
	ring    []Window
	next    int
	wrapped bool
	dropped int64

	prevStart int64
	prev      Counters

	// attrOn marks that the ring slots carry preallocated Attr slices
	// (EnableAttr); Record then fills per-cause deltas in place.
	attrOn bool
}

// New builds a sampler with the given window length in cycles (<= 0
// selects DefaultWindow) and ring capacity in windows (<= 0 selects a
// 4096-window ring). All storage is allocated here; Record is
// allocation-free.
func New(windowCycles int64, capWindows int) *Sampler {
	if windowCycles <= 0 {
		windowCycles = DefaultWindow
	}
	if capWindows <= 0 {
		capWindows = defaultCap
	}
	return &Sampler{
		window: windowCycles,
		nextAt: windowCycles,
		ring:   make([]Window, capWindows),
	}
}

// EnableAttr preallocates a per-cause slot-delta slice for every ring
// window (one backing array, full-capacity sub-slices), so sampled runs
// with attribution record per-window CPI stacks without allocating in
// Record. Call once, before the first Record.
func (s *Sampler) EnableAttr() {
	n := int(attr.NumCauses)
	backing := make([]int64, len(s.ring)*n)
	for i := range s.ring {
		s.ring[i].Attr = backing[i*n : (i+1)*n : (i+1)*n]
	}
	s.attrOn = true
}

// NextAt returns the cycle at which the current window closes; callers
// check `now >= NextAt()` (one compare) before paying for Record.
func (s *Sampler) NextAt() int64 { return s.nextAt }

// Record closes the current window at cycle now against the cumulative
// snapshot c, storing deltas since the previous boundary. dbbHigh is the
// occupancy high-water the caller tracked inside the window.
func (s *Sampler) Record(now int64, c Counters, dbbHigh int) {
	w := Window{
		Start: s.prevStart,
		End:   now,

		Committed:      c.Committed - s.prev.Committed,
		Issued:         c.Issued - s.prev.Issued,
		BrMispredicts:  c.BrMispredicts - s.prev.BrMispredicts,
		ResMispredicts: c.ResMispredicts - s.prev.ResMispredicts,
		RetMispredicts: c.RetMispredicts - s.prev.RetMispredicts,
		Resolves:       c.Resolves - s.prev.Resolves,
		Predicts:       c.Predicts - s.prev.Predicts,
		Flushes:        c.Flushes - s.prev.Flushes,

		StallEmpty:   c.StallEmpty - s.prev.StallEmpty,
		StallOperand: c.StallOperand - s.prev.StallOperand,
		StallBranch:  c.StallBranch - s.prev.StallBranch,
		StallResolve: c.StallResolve - s.prev.StallResolve,
		StallFU:      c.StallFU - s.prev.StallFU,

		L1IMisses: c.L1IMisses - s.prev.L1IMisses,
		L1DMisses: c.L1DMisses - s.prev.L1DMisses,
		L2Misses:  c.L2Misses - s.prev.L2Misses,

		DBBHighWater: dbbHigh,
	}
	if s.wrapped {
		s.dropped++
	}
	if s.attrOn {
		// Reuse the slot's preallocated slice across the overwrite.
		w.Attr = s.ring[s.next].Attr
		for i := range w.Attr {
			w.Attr[i] = c.Attr[i] - s.prev.Attr[i]
		}
	}
	s.ring[s.next] = w
	s.next++
	if s.next == len(s.ring) {
		s.next, s.wrapped = 0, true
	}
	s.prevStart = now
	s.prev = c
	// Re-anchor rather than accumulate, so a caller that closes a window
	// late (it checks boundaries once per cycle) does not immediately owe
	// another one.
	s.nextAt = now + s.window
}

// Flush closes the final (possibly partial) window at end of run. It
// records nothing when no cycles passed and no counter moved since the
// last boundary, so the telescoping-sum property holds exactly.
func (s *Sampler) Flush(now int64, c Counters, dbbHigh int) {
	if now == s.prevStart && c == s.prev {
		return
	}
	s.Record(now, c, dbbHigh)
}

// Series copies the retained windows out, oldest first. Call after the
// run; this is the one allocating method.
func (s *Sampler) Series() *Series {
	out := &Series{WindowCycles: s.window, Dropped: s.dropped}
	if !s.wrapped {
		out.Windows = append([]Window(nil), s.ring[:s.next]...)
	} else {
		out.Windows = make([]Window, 0, len(s.ring))
		out.Windows = append(out.Windows, s.ring[s.next:]...)
		out.Windows = append(out.Windows, s.ring[:s.next]...)
	}
	if s.attrOn {
		// Detach from the ring's backing array: the series outlives the
		// sampler and must not alias reusable storage.
		for i := range out.Windows {
			out.Windows[i].Attr = append([]int64(nil), out.Windows[i].Attr...)
		}
	}
	return out
}
