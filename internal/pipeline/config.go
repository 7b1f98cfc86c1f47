// Package pipeline implements the cycle-level in-order superscalar
// simulator of Table 1, extended with the paper's decomposed-branch
// support: PREDICT instructions that steer fetch and are dropped in the
// front end, RESOLVE instructions statically predicted not-taken, and the
// Decomposed Branch Buffer (DBB) that re-associates each resolution with
// the predictor metadata captured at its prediction.
//
// The model is execution-driven: fetch follows the predicted path
// (including wrong paths), instructions execute architecturally at issue
// against a speculative state, and mispredictions restore register-file /
// history / RAS / DBB checkpoints taken when the speculation point issued.
// Stores drain from a store buffer only once every older speculation point
// has resolved, so wrong-path stores never reach memory.
package pipeline

import (
	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/cache"
	"vanguard/internal/exec"
	"vanguard/internal/pipeview"
	"vanguard/internal/sample"
	"vanguard/internal/trace"
)

// Config describes one machine configuration.
type Config struct {
	// Width is the fetch/decode/dispatch/issue width (Table 1 varies it
	// over 2/4/8).
	Width int
	// FrontEndDepth is the number of front-end stages (Table 1: 5); an
	// instruction fetched at cycle c can issue no earlier than
	// c + FrontEndDepth - 1.
	FrontEndDepth int
	// FetchBufEntries bounds the fetch buffer (Table 1: 32).
	FetchBufEntries int
	// Functional unit counts (Table 1: up to 2 LD/ST, 2 INT, 4 FP).
	IntUnits, MemUnits, FPUnits int
	// Hier is the cache hierarchy configuration.
	Hier cache.HierConfig
	// NewPredictor constructs the direction predictor (fresh per run).
	// A func has no JSON encoding, so run-cache keys name the predictor
	// instead.
	NewPredictor func() bpred.DirPredictor `json:"-"`
	// BTBLogEntries is log2 of BTB entries (Table 1: 4K -> 12).
	BTBLogEntries int
	// RASEntries is the return address stack depth (Table 1: 64).
	RASEntries int
	// DBBEntries is the decomposed branch buffer depth (paper: 16).
	DBBEntries int

	// ExceptionEveryN injects an exceptional control-flow event
	// (interrupt/context-switch stand-in) every N committed instructions:
	// the fetch buffer is squashed, a handler penalty is charged, and the
	// DBB tail is moved by handler activity — the hazard Section 4
	// discusses. 0 disables injection.
	ExceptionEveryN int64
	// DBBInvalidateOnException selects the paper's second strategy: mark
	// all DBB entries invalid at the event so resolves whose predicts
	// predate it suppress their (now meaningless) predictor updates.
	// False selects the first strategy: ignore the event and tolerate
	// spurious updates.
	DBBInvalidateOnException bool

	// MaxInstrs stops the simulation after this many committed
	// instructions (0 = unlimited); MaxCycles likewise.
	MaxInstrs int64
	MaxCycles int64

	// Dispatch selects how the issue stage executes instruction
	// semantics: exec.DispatchKernels (the zero value and the default)
	// calls the per-PC kernel compiled at predecode, operands already
	// resolved; exec.DispatchSwitch calls the reference exec.Step switch.
	// The two are byte-identical on stats, telemetry and architectural
	// results (make kernel-gate proves it); the knob exists for A/B
	// measurement and as an escape hatch back to the reference semantics.
	Dispatch exec.Dispatch

	// Attr enables cycle attribution: every issue slot of every cycle is
	// charged to exactly one cause (internal/attr) in preallocated flat
	// arrays, exported as Stats.Attr. Off (the default) constructs no
	// recorder: the per-cycle cost is nil checks and the run's stats and
	// reports are byte-identical to an attribution-less build.
	Attr bool

	// SampleWindow enables the cycle-window time-series sampler: every
	// SampleWindow cycles the machine records counter deltas into a
	// preallocated ring and exports them as Stats.Samples. 0 (the
	// default) disables sampling entirely — no sampler is constructed
	// and the per-cycle cost is a single nil check.
	SampleWindow int64

	// Pipeview enables the pipeline waterfall recorder: a trace sink that
	// assembles per-instruction lifetime records (fetch, issue, writeback,
	// commit/squash/drop cycles with cause and DBB linkage) into
	// preallocated ring storage, exported as Stats.Pipeview. Nil (the
	// default) constructs no recorder: the off-path cost is the same nil
	// checks as an unset Sink and the run's stats and reports are
	// byte-identical to a pipeview-less build. The recorder observes and
	// never steers — enabling it leaves simulated timing unchanged.
	Pipeview *pipeview.Config

	// Probe enables the predictor observatory: a bpred.Probe attached to
	// the direction predictor records, in preallocated storage, per-table
	// provider usage, allocation and aliasing counters, confidence
	// accounting, and the per-static-branch outcome digest that
	// classifies every branch as biased / regime-switching /
	// effectively-random, exported as Stats.Bpred. Off (the default)
	// constructs no probe: the per-resolution cost is nil checks and the
	// run's stats and reports are byte-identical to a probe-less build.
	// The probe observes and never steers — enabling it leaves simulated
	// timing unchanged.
	Probe bool

	// debugCheckpoints additionally takes a full register-file snapshot at
	// every speculation point and cross-checks the undo-journal rewind
	// against it on squash, panicking on divergence. Test-only (unexported
	// on purpose): it reintroduces exactly the per-branch copying the
	// journal exists to avoid.
	debugCheckpoints bool

	// stepper turns frozen-cycle skipping off, so the machine steps every
	// cycle one at a time: the reference the skip is checked against.
	// Test-only (unexported on purpose): it changes no result, only speed.
	stepper bool
}

// DefaultConfig returns the Table 1 machine at the given width.
func DefaultConfig(width int) Config {
	return Config{
		Width:           width,
		FrontEndDepth:   5,
		FetchBufEntries: 32,
		IntUnits:        2,
		MemUnits:        2,
		FPUnits:         4,
		Hier:            cache.DefaultHierConfig(),
		NewPredictor:    func() bpred.DirPredictor { return bpred.NewDefault() },
		BTBLogEntries:   12,
		RASEntries:      64,
		DBBEntries:      16,
	}
}

// Stats aggregates one simulation run.
type Stats struct {
	Cycles    int64
	Fetched   int64
	Issued    int64
	Committed int64
	// WrongPathIssued counts instructions that issued and were later
	// squashed (Figure 14's numerator).
	WrongPathIssued int64
	// SquashedFetched counts instructions fetched but never issued.
	SquashedFetched int64
	Halted          bool

	// Branch behaviour.
	CondBranches   int64 // committed BR instructions
	Predicts       int64 // PREDICT instructions consumed by the front end
	Resolves       int64 // committed RESOLVE instructions
	BrMispredicts  int64 // BR direction mispredictions
	ResMispredicts int64 // RESOLVE firings (decomposed-branch repairs)
	RetMispredicts int64 // RAS target mispredictions
	Flushes        int64 // pipeline flushes (one per misprediction recovery)

	// Stall attribution at the issue head: scalar totals, plus run-length
	// distributions below that say whether the cycles come as many short
	// hiccups or few long outages.
	ResolveStallCycles int64 // head is a RESOLVE waiting on its condition
	BranchStallCycles  int64 // head is a BR waiting on its condition
	OperandStallCycles int64 // head waits on operands (all kinds)
	FUStallCycles      int64 // head ready but no port/unit free
	EmptyFetchCycles   int64 // nothing issuable in the buffer

	// Distribution telemetry (power-of-two histograms; always recorded —
	// the cost is a few integer ops per sample).
	FetchToIssue    trace.Hist // cycles from fetch to issue, per issued instruction
	RepairPenalty   trace.Hist // cycles from a flush until the next instruction issues
	DBBOccupancy    trace.Hist // outstanding decomposed branches, sampled at every push/pop
	StallRunEmpty   trace.Hist // run lengths (cycles) of empty-fetch issue-head stalls
	StallRunOperand trace.Hist // ... of operand stalls not attributed to a control point
	StallRunBranch  trace.Hist // ... of operand stalls attributed to a BR condition
	StallRunResolve trace.Hist // ... of operand stalls attributed to a RESOLVE condition
	StallRunFU      trace.Hist // ... of structural (no free unit) stalls

	// Exceptions counts injected exceptional control-flow events.
	Exceptions int64

	// MaxDBBOccupancy is the high-water mark of simultaneously
	// outstanding decomposed branches (predicts fetched whose resolves
	// have not yet been fetched). The paper sizes the DBB at 16 after
	// observing this stays small under in-order back-pressure.
	MaxDBBOccupancy int

	// Memory system (mirrors of hierarchy counters for convenience).
	L1DMissRate            float64
	L1IMissRate            float64
	ICacheMisses           int64
	ICacheMissUnderMispred int64

	// Front-end structures (mirrors of bpred counters).
	BTBHits       int64
	BTBMisses     int64
	RASUnderflows int64

	// Per static branch (by BranchID): execution/misprediction/stall.
	PerBranch map[int]*BranchStats

	// Samples is the cycle-window time series, nil unless
	// Config.SampleWindow was set.
	Samples *sample.Series

	// Attr is the per-cause issue-slot attribution, nil unless Config.Attr
	// was set.
	Attr *attr.Report

	// Pipeview is the per-instruction lifetime capture, nil unless
	// Config.Pipeview was set.
	Pipeview *trace.PipeviewReport

	// Bpred is the predictor-observatory study (per-table usage, table
	// occupancy/aliasing, and the per-branch predictability
	// classification), nil unless Config.Probe was set.
	Bpred *bpred.StudyReport
}

// BranchStats tracks one static (decomposed or plain) branch.
type BranchStats struct {
	Execs       int64
	Mispredicts int64
	StallCycles int64 // issue-head stall cycles attributed to this branch
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MPKI returns branch mispredictions (all kinds) per thousand committed
// instructions — the paper's MPPKI metric.
func (s *Stats) MPKI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.BrMispredicts+s.ResMispredicts+s.RetMispredicts) * 1000 / float64(s.Committed)
}

func (s *Stats) branch(id int) *BranchStats {
	if s.PerBranch == nil {
		s.PerBranch = make(map[int]*BranchStats)
	}
	b := s.PerBranch[id]
	if b == nil {
		b = &BranchStats{}
		s.PerBranch[id] = b
	}
	return b
}
