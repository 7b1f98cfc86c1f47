package pipeline

import (
	"errors"
	"fmt"
	"math"

	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/cache"
	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/sample"
	"vanguard/internal/trace"
)

// fetchEntry is the hot slot of the fetch buffer: only what every
// instruction needs on the fetch→issue path. It deliberately carries no
// isa.Instr: the instruction word is re-read from the immutable image by
// pc. readyAt is the earliest issue cycle, fetch cycle + FrontEndDepth - 1,
// so the issue head tests one field; the fetch cycle is readyAt minus the
// machine's feDelay. Speculation metadata lives in the parallel cold array
// (fetchSpec), so the per-instruction queue copies move 24 bytes instead
// of ~112.
type fetchEntry struct {
	seq     int64
	pc      int
	readyAt int64
}

// fetchSpec is the cold slot paired with each fetchEntry: speculation
// metadata captured in the front end. Slots are only written (and only
// valid) for ops that issue a speculation point or repair state — BR,
// RESOLVE, RET; for everything else the slot holds stale garbage that is
// never read. Writers must assign the whole struct so unset fields are
// zero, exactly as when this data lived inline in fetchEntry.
type fetchSpec struct {
	predTaken   bool       // BR: predicted direction
	predTarget  int        // RET: RAS-predicted target
	meta        bpred.Meta // BR: predictor metadata
	histCkpt    bpred.Hist // history checkpoint (pre-push)
	rasCkpt     bpred.RASCkpt
	dbbIdx      int // RESOLVE: DBB entry to read at resolution
	dbbTailCkpt int // DBB tail for misprediction repair
	dbbOccCkpt  int // outstanding-decomposed-branch count at fetch
}

// ---- predecode ----

// Program is an image prepared for simulation: the per-PC predecode
// table with every instruction's compiled kernel. Nothing writes to it
// after Predecode returns, so any number of machines — on any number of
// goroutines — can run over one Program; each owns all of its mutable
// state (fetch queue, scoreboard, store buffer, predictor, caches, stats)
// and its results are those of a machine built over a fresh Program.
type Program struct {
	im  *ir.Image
	pre []predecoded
	err error // predecode's first kernel-compile error
}

// Predecode prepares im for simulation. The image must not change
// afterwards.
func Predecode(im *ir.Image) *Program {
	pre, err := predecode(im)
	return &Program{im: im, pre: pre, err: err}
}

// predecoded caches the per-PC instruction metadata the issue stage needs
// every cycle (register uses/def, functional unit, latency, kind flags),
// so the hot loop indexes one flat array instead of re-deriving it through
// isa switches per issued instruction. Built once per Program; the image
// is immutable for the life of every run over it.
type predecoded struct {
	// pure is the no-Result/no-error form of a pure register op
	// (exec.CompilePure; nil otherwise): such an op cannot fault, touch
	// memory, or issue a speculation point, so the issue stage calls it
	// and skips a kernel's Result construction and error check entirely.
	pure func(*exec.State)
	// kernel is the compiled semantics (exec.Compile) of every other op:
	// one direct-through-pointer call replaces exec.Step's megamorphic
	// opcode switch in the issue stage. Only one of pure and kernel is
	// built per PC, the one the issue stage calls. kernel is nil for a
	// pure op and for an opcode the compiler rejected; predecode surfaces
	// the rejection as its error and Run refuses to start under kernel
	// dispatch (switch dispatch keeps the reference step-time fault
	// behavior).
	kernel exec.Kernel
	// uses are the source operands as scoreboard slots: a register's own
	// index, or noRegSlot (always ready) for an unused operand.
	uses  [3]isa.Reg
	def   isa.Reg
	op    isa.Op
	fu    isa.FU
	flags uint8
	// run is the number of instructions from this PC up to the next
	// control op (isa.Instr.IsControl) or the end of the fetch line,
	// whichever comes first; 0 at a control op. Fetch pushes a run with
	// one bounds, line and op check.
	run     uint8
	latency int32
	branch  int32 // static BranchID (0 = unassigned)
}

// noRegSlot is the scoreboard slot of isa.NoReg: nothing writes it, so an
// unused operand reads ready without a test of its own.
const noRegSlot = isa.Reg(isa.NumRegs)

// fetchLine is the fetch granule in bytes: fetch accesses the I-cache once
// per 64-byte line it enters.
const fetchLine = 64

// predecoded.flags bits.
const (
	pdLoad  uint8 = 1 << iota // LD or LDS
	pdStore                   // ST
	pdSpec                    // BR, RESOLVE or RET: issues a speculation point
)

// predecode builds the per-PC table, compiling each instruction along
// the way: a pure op's CompilePure form, or else its kernel. The returned
// error is the first kernel-compile failure (an unknown opcode); the
// table itself is still fully built — under switch dispatch the machine
// runs it exactly as before (the bad opcode faults at step time, the
// reference behavior), while kernel dispatch refuses to start.
func predecode(im *ir.Image) ([]predecoded, error) {
	instrs := im.Instrs
	pre := make([]predecoded, len(instrs))
	var firstErr error
	for pc := range instrs {
		ins := &instrs[pc]
		p := &pre[pc]
		p.uses[0], p.uses[1], p.uses[2] = ins.Uses()
		for i, r := range p.uses {
			if r == isa.NoReg {
				p.uses[i] = noRegSlot
			}
		}
		p.def = ins.Def()
		p.op = ins.Op
		p.fu = ins.Op.Unit()
		p.latency = int32(ins.Op.Latency())
		p.branch = int32(ins.BranchID)
		if ins.IsLoad() {
			p.flags |= pdLoad
		}
		if ins.IsStore() {
			p.flags |= pdStore
		}
		if op := ins.Op; op == isa.BR || op == isa.RESOLVE || op == isa.RET {
			p.flags |= pdSpec
		}
		if p.pure = exec.CompilePure(ins); p.pure == nil {
			k, err := exec.Compile(ins, pc)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			p.kernel = k
		}
	}
	// Runs, back to front: a run stops before a control op (the ops fetch
	// handles on its own: they redirect or stop fetch, push the RAS, or
	// take a predictor or DBB checkpoint) and at the last instruction of a
	// fetch line or of the image.
	for pc := len(pre) - 1; pc >= 0; pc-- {
		switch {
		case instrs[pc].IsControl():
			pre[pc].run = 0
		case pc+1 == len(pre) || im.PCAddr(pc+1)%fetchLine == 0:
			pre[pc].run = 1
		default:
			pre[pc].run = pre[pc+1].run + 1
		}
	}
	return pre, firstErr
}

// ---- speculation checkpoints ----

// specPoint is an issued-but-unresolved speculation point (BR, RESOLVE or
// RET) with the checkpoints needed to repair a misprediction. Register
// state is not copied here: jMark bounds the machine's undo journal, and a
// squash rewinds the journal back to it.
type specPoint struct {
	fe          fetchEntry
	spec        fetchSpec
	resolveAt   int64
	mispredict  bool
	redirectPC  int
	actualTaken bool // BR: direction; RESOLVE: original branch outcome
	halted      bool // architectural Halted at issue

	jMark          int64 // journal high-water mark at issue
	issuedSnapshot int64
}

// regUndo journals one architectural register write: the value, poison bit
// and scoreboard ready-time the write replaced. Rewinding a suffix of the
// journal (newest first) restores the register file exactly to the state
// at any earlier mark — the bounded undo-log replacement for copying the
// full [NumRegs] arrays into every speculation point.
type regUndo struct {
	val    int64
	ready  int64
	writer int32 // last-writer PC the write replaced (operand attribution)
	reg    isa.Reg
	poison bool
}

// debugSnap is the full-copy checkpoint kept per speculation point when
// Config.debugCheckpoints is set; flush cross-checks the journal-rewound
// state against it (differential test support, never on in production).
type debugSnap struct {
	regs     [isa.NumRegs]int64
	poison   [isa.NumRegs]bool
	regReady [isa.NumRegs + 1]int64
	halted   bool
}

// ---- store buffer ----

type sbEntry struct {
	seq  int64
	addr uint64
	val  int64
}

// sbSlots sizes the store buffer's direct-mapped last-writer index.
const sbSlots = 16

// sbSlot caches the youngest buffered store to one address so load
// forwarding stops scanning the whole buffer on deep wrong paths. A slot
// hit requires: same generation (no squash since insert), exact address
// match, and the entry's seq still inside the buffer's live window (not
// yet drained). Anything else falls back to the scan, so collisions are
// only a missed optimization, never a wrong value.
type sbSlot struct {
	addr uint64
	val  int64
	seq  int64
	gen  uint32
}

func sbSlotIdx(addr uint64) int { return int((addr >> 3) & (sbSlots - 1)) }

// sbLookup returns the youngest buffered store to addr, if any.
func (m *Machine) sbLookup(addr uint64) (int64, bool) {
	if s := &m.sbLast[sbSlotIdx(addr)]; s.gen == m.sbGen && s.addr == addr &&
		len(m.sb) > 0 && s.seq >= m.sb[0].seq {
		return s.val, true
	}
	for i := len(m.sb) - 1; i >= 0; i-- {
		if m.sb[i].addr == addr {
			return m.sb[i].val, true
		}
	}
	return 0, false
}

// sbView gives exec.Step a memory with store-buffer semantics: stores are
// buffered (squashable), loads forward from the youngest matching store.
type sbView struct{ m *Machine }

// Load implements exec.Memory. Both legs are allocation-free: forwarding
// hits come from the last-writer index and misses take the paged memory's
// TLB fast path; a faulting (wrong-path) address returns the machine's
// preallocated Fault sentinel.
func (v sbView) Load(addr uint64) (int64, error) {
	m := v.m
	if val, ok := m.sbLookup(addr); ok {
		return val, nil
	}
	if val, ok := m.mem.LoadFast(addr); ok {
		return val, nil
	}
	m.loadFault = mem.Fault{Addr: addr}
	return 0, &m.loadFault
}

// Store implements exec.Memory. Fault detection happens eagerly (pure
// address arithmetic via mem.Valid) so wrong-path stores to garbage
// addresses surface as deferred faults rather than corrupting the buffer
// silently — without the old probing load's page-table lookup or the two
// Fault allocations per speculative store.
func (v sbView) Store(addr uint64, val int64) error {
	m := v.m
	if !mem.Valid(addr) {
		m.storeFault = mem.Fault{Addr: addr, Write: true}
		return &m.storeFault
	}
	m.sb = append(m.sb, sbEntry{seq: m.curSeq, addr: addr, val: val})
	m.sbLast[sbSlotIdx(addr)] = sbSlot{addr: addr, val: val, seq: m.curSeq, gen: m.sbGen}
	return nil
}

// Machine is one configured in-order superscalar with a loaded program.
type Machine struct {
	cfg  Config
	im   *ir.Image
	mem  *mem.Memory
	Hier *cache.Hierarchy
	pred bpred.DirPredictor
	btb  *bpred.BTB
	ras  *bpred.RAS
	DBB  *DBB

	st *exec.State
	// regReady is the scoreboard: the cycle each register's value is
	// ready, indexed by register, plus noRegSlot (always 0).
	regReady [isa.NumRegs + 1]int64
	pre      []predecoded
	feDelay  int64 // FrontEndDepth-1: fetched at c, issues no earlier than c+feDelay
	// waited counts issued instructions by cycles waited past readyAt,
	// below len(waited); finishStats folds it into Stats.FetchToIssue
	// (delay = wait + feDelay), which takes longer waits directly.
	waited [64]int64

	// useKernels mirrors cfg.Dispatch == exec.DispatchKernels for the
	// issue hot path; preErr is the Program's kernel-compile error and
	// blocks Run only under kernel dispatch.
	useKernels bool
	preErr     error

	fetchPC       int
	fetchStall    int64
	lastFetchLine uint64
	fetchHalted   bool
	// The fetch buffer is a power-of-two ring: fbHead indexes the oldest
	// entry, fbCnt is the occupancy (bounded by FetchBufEntries), and
	// fbMask wraps indexes. A ring never compacts — the buffer runs full
	// in steady state (fetch refills what issue drains every cycle), so a
	// compacting queue would memmove nearly the whole buffer per cycle —
	// and entries keep stable addresses between push and pop.
	// fbSpec is the index-aligned cold array (see fetchSpec).
	fb     []fetchEntry
	fbSpec []fetchSpec
	fbHead int
	fbCnt  int
	fbMask int
	seq    int64
	curSeq int64

	// In-flight speculation points, a head-indexed FIFO of values (same
	// compaction discipline as the fetch buffer; no per-branch heap
	// allocation). Register state for squash repair lives in the journal.
	inflight []specPoint
	infHead  int

	// The register undo journal. journal[i] describes the (jBase+i)-th
	// architectural register write since the last release; specPoint
	// marks are absolute, so releasing a committed prefix is a cheap
	// copy-down that never touches the marks.
	journal []regUndo
	jBase   int64

	sb     []sbEntry
	sbLast [sbSlots]sbSlot
	sbGen  uint32

	// brStats memoizes stats.branch by BranchID: the per-branch books are
	// charged on every branch resolution and every stall cycle blamed on
	// a branch, and a slice index beats the map probe on that path. The
	// map in Stats stays the exported (and serialized) form.
	brStats []*BranchStats

	// Preallocated fault sentinels: wrong-path probes hit these instead
	// of allocating, and a fault that is actually deferred is copied into
	// pendFault so later probes cannot clobber it.
	loadFault  mem.Fault
	storeFault mem.Fault
	pendFault  mem.Fault

	// debugSnaps holds the full-copy checkpoints cross-checked against
	// journal rewinds under Config.debugCheckpoints (tests only).
	debugSnaps map[int64]*debugSnap

	// Sink, when non-nil, receives one typed trace.Event per lifecycle
	// event (fetch, issue, commit, squash, mispredict, resolve firing,
	// DBB push/pop, cache miss, deferred fault). Attach a trace.Ring for
	// post-mortems, a trace.Text for human-readable logs, a trace.Chrome
	// for Perfetto timelines, or trace.Tee for several at once. Set it
	// before Run; a nil sink costs one branch per event site.
	Sink trace.Sink

	dbbOcc int // currently outstanding decomposed branches

	// Pipeline waterfall recorder (nil unless Config.Pipeview). It is a
	// trace sink teed into Sink at Run, so it sees the same event stream
	// as any user-attached sink; Emit is allocation-free and the recorder
	// only observes, so simulated timing is unchanged.
	pview         *pipeview.Recorder
	pviewAttached bool

	// Cycle-window sampler (nil unless Config.SampleWindow > 0). The
	// per-cycle cost of a nil sampler is one nil check in stepCycle;
	// winDBBHigh tracks the occupancy high-water inside the open window
	// with one compare at each DBB push.
	sampler    *sample.Sampler
	winDBBHigh int

	// Cycle attribution (nil unless Config.Attr). The repair pair
	// remembers the flushing speculation point so chargeCycle can blame
	// post-flush bubbles on the mispredicted branch. fetchStallIsICache
	// tells an I-cache miss from the exception penalty while fetchStall
	// runs down. regWriter maps each architectural register to the PC of
	// its last writer (journaled like the register file), so an operand
	// stall can name the load that produced the missing value.
	attr               *attr.Recorder
	attrRepairCause    attr.Cause
	attrRepairIdx      int
	fetchStallIsICache bool
	regWriter          [isa.NumRegs]int32

	// Predictor observatory (nil unless Config.Probe). The probe is
	// attached to the direction predictor at construction (table-level
	// event hooks) and fed the committed resolution stream here at
	// resolve time; it observes and never steers, so simulated timing
	// and all other stats are unchanged.
	probe *bpred.Probe

	// The open issue-head stall run: its length in cycles and the
	// StallRun* histogram it will be recorded in (nil when no run is open).
	stallHist *trace.Hist
	stallRun  int64
	// repairStart is the cycle of the flush currently being repaired, or
	// -1 when issue has caught up again (feeds RepairPenalty).
	repairStart int64

	nextException int64

	// maxCycles is Config.MaxCycles with its default applied: the cycle
	// at which Run stops with an error, and the latest cycle a frozen-cycle
	// skip may jump to.
	maxCycles int64

	now          int64
	haltSeq      int64
	pendFaultSeq int64
	pendFaultErr error
	underMispred bool

	stats Stats
}

// New builds a machine over the image and memory (mutated during the run).
func New(im *ir.Image, m *mem.Memory, cfg Config) *Machine {
	return Predecode(im).NewMachine(m, cfg)
}

// NewMachine builds a machine over the program and memory (mutated
// during the run). Its allocations do not depend on the image length
// unless an attribution recorder is configured.
func (p *Program) NewMachine(m *mem.Memory, cfg Config) *Machine {
	im := p.im
	mach := &Machine{
		cfg:           cfg,
		im:            im,
		mem:           m,
		Hier:          cache.NewHierarchy(cfg.Hier),
		pred:          cfg.NewPredictor(),
		btb:           bpred.NewBTB(cfg.BTBLogEntries),
		ras:           bpred.NewRAS(cfg.RASEntries),
		DBB:           NewDBB(cfg.DBBEntries),
		pre:           p.pre,
		feDelay:       int64(cfg.FrontEndDepth) - 1,
		fetchPC:       im.Entry,
		lastFetchLine: math.MaxUint64,
		fb:            make([]fetchEntry, ringSize(cfg.FetchBufEntries)),
		fbSpec:        make([]fetchSpec, ringSize(cfg.FetchBufEntries)),
		fbMask:        ringSize(cfg.FetchBufEntries) - 1,
		inflight:      make([]specPoint, 0, 2*cfg.Width+4),
		journal:       make([]regUndo, 0, 64),
		sb:            make([]sbEntry, 0, 64),
		haltSeq:       -1,
		pendFaultSeq:  -1,
		repairStart:   -1,
		useKernels:    cfg.Dispatch == exec.DispatchKernels,
		preErr:        p.err,
	}
	mach.st = exec.NewState(sbView{mach}, im.Entry)
	mach.nextException = cfg.ExceptionEveryN
	mach.maxCycles = cfg.MaxCycles
	if mach.maxCycles <= 0 {
		mach.maxCycles = 2_000_000_000
	}
	if cfg.Attr || cfg.Probe {
		maxID := 0
		for i := range im.Instrs {
			if id := im.Instrs[i].BranchID; id > maxID {
				maxID = id
			}
		}
		if cfg.Attr {
			mach.attr = attr.NewRecorder(len(im.Instrs), maxID, cfg.Width)
		}
		if cfg.Probe {
			mach.probe = bpred.NewProbe(maxID)
			mach.probe.Attach(mach.pred)
		}
	}
	for r := range mach.regWriter {
		mach.regWriter[r] = -1
	}
	if cfg.SampleWindow > 0 {
		mach.sampler = sample.New(cfg.SampleWindow, 0)
		if cfg.Attr {
			mach.sampler.EnableAttr()
		}
	}
	if cfg.Pipeview != nil {
		mach.pview = pipeview.NewRecorder(*cfg.Pipeview)
	}
	return mach
}

// attachPipeview tees the waterfall recorder into the event sink (idempotent;
// called at Run so a caller-assigned Sink is already in place).
func (m *Machine) attachPipeview() {
	if m.pview != nil && !m.pviewAttached {
		m.Sink = trace.Tee(m.Sink, m.pview)
		m.pviewAttached = true
	}
}

// exceptionPenaltyCycles models the cost of entering and leaving the
// handler (pipeline drain + flush + kernel work stand-in).
const exceptionPenaltyCycles = 30

// takeException injects an exceptional control-flow event at a quiet
// point (no unresolved speculation): the fetch buffer is squashed and
// refetched, a handler penalty is charged, and the handler's own
// decomposed branches move the DBB tail. Under the paper's second
// strategy the surviving entries are invalidated first, so resolves from
// before the event suppress their updates instead of training garbage.
func (m *Machine) takeException() {
	m.stats.Exceptions++
	if m.fbLen() > 0 {
		head := m.fbAt(0)
		m.fetchPC = head.pc
		m.stats.SquashedFetched += int64(m.fbLen())
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindSquash, Cause: trace.CauseException,
				Cycle: m.now, Seq: head.seq, PC: head.pc, Val: int64(m.fbLen())})
		}
		m.fbClear()
	}
	m.fetchHalted = false
	m.lastFetchLine = math.MaxUint64
	m.fetchStall += exceptionPenaltyCycles
	m.fetchStallIsICache = false
	// Handler activity moves the DBB tail with its own decomposed
	// branches...
	handlerPC := uint64(0xffff0000)
	for i := 0; i < 2; i++ {
		taken, meta := m.pred.Predict(handlerPC + uint64(i*4))
		m.DBB.Insert(handlerPC+uint64(i*4), taken, meta, m.pred.Checkpoint())
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindDBBPush, Cause: trace.CauseException,
				Cycle: m.now, Seq: -1, Val: int64(m.dbbOcc)})
		}
	}
	// ...and under the second strategy, the return to user code marks
	// everything invalid, so stale pairings suppress their updates until
	// the next predict refills the buffer.
	if m.cfg.DBBInvalidateOnException {
		m.DBB.InvalidateAll()
	}
}

// Memory returns the machine's architectural memory (for post-run
// verification against a golden model).
func (m *Machine) Memory() *mem.Memory { return m.mem }

// stepCycle advances the machine by one cycle: resolve speculation, surface
// committed faults, drain committed stores, inject exceptions, then issue,
// book the cycle's slots, fetch, advance the clock, and close a sample
// window that ended on this cycle. A frozen cycle (see frozen) is stepped
// together with every identical cycle after it, up to the first one at
// which anything can differ. It returns done=true when the run is over
// (HALT drained or an instruction cap hit) and a non-nil error on an
// architectural fault.
func (m *Machine) stepCycle() (done bool, err error) {
	// Each phase runs only when the state it acts on is non-empty.
	if m.infLen() > 0 {
		m.resolve()
	}
	if m.pendFaultSeq >= 0 {
		if err := m.commitFaultCheck(); err != nil {
			return true, err
		}
	}
	if len(m.sb) > 0 {
		m.drainStores()
	}
	if m.cfg.ExceptionEveryN > 0 && m.infLen() == 0 && m.exceptionDue() {
		m.takeException()
		m.nextException += m.cfg.ExceptionEveryN
	}
	if (m.haltSeq >= 0 || m.cfg.MaxInstrs > 0) && m.done() {
		return true, nil
	}
	issued, cause, idx, wake := m.issue()
	k := int64(1)
	if issued == 0 && m.frozen() {
		k = m.wakeCycle(wake) - m.now
	}
	if issued == 0 || m.stallRun > 0 || m.attr != nil {
		m.chargeCycle(issued, cause, idx, k)
	}
	m.fetch(k)
	m.now += k
	if m.sampler != nil && m.now >= m.sampler.NextAt() {
		m.closeSampleWindow()
	}
	return false, nil
}

// exceptionDue reports whether the committed-instruction count has
// reached the next injected exception.
func (m *Machine) exceptionDue() bool {
	return m.cfg.ExceptionEveryN > 0 && m.stats.Issued-m.stats.WrongPathIssued >= m.nextException
}

// frozen reports whether the cycle being stepped, which issued nothing,
// repeats unchanged in every following cycle until something wakes it
// (DESIGN.md §6 "Frozen cycles"): nothing is in flight to resolve, no
// store waits to drain, no fault, exception, HALT or instruction cap is
// due, and fetch is inert — halted, stalled, or facing a full buffer.
// The issue head then sees the same buffer, scoreboard and front-end
// state, so it stops for the same cause, until the wake cycle issue
// reported or the fetch stall runs out.
func (m *Machine) frozen() bool {
	return !m.cfg.stepper && m.infLen() == 0 && len(m.sb) == 0 &&
		m.pendFaultSeq < 0 && m.haltSeq < 0 && !m.exceptionDue() && !m.instrCapReached() &&
		(m.fetchHalted || m.fetchStall > 0 || m.fbLen() >= m.cfg.FetchBufEntries)
}

// wakeCycle bounds a frozen run: the earliest of issue's wake cycle, the
// end of the fetch stall, the next sample-window boundary and the cycle
// cap, and at least one cycle ahead.
func (m *Machine) wakeCycle(wake int64) int64 {
	if !m.fetchHalted && m.fetchStall > 0 {
		wake = min(wake, m.now+m.fetchStall)
	}
	if m.sampler != nil {
		wake = min(wake, m.sampler.NextAt())
	}
	return max(min(wake, m.maxCycles), m.now+1)
}

// closeSampleWindow records the just-finished cycle window and re-arms
// the in-window DBB high-water tracker. Allocation-free (the sampler's
// ring is preallocated).
func (m *Machine) closeSampleWindow() {
	m.sampler.Record(m.now, m.sampleCounters(), m.winDBBHigh)
	m.winDBBHigh = m.dbbOcc
}

// sampleCounters snapshots the cumulative counters the sampler
// differences. Committed is derived as Issued-WrongPathIssued because
// Stats.Committed is only materialized in finishStats; the difference
// telescopes identically.
func (m *Machine) sampleCounters() sample.Counters {
	c := sample.Counters{
		Committed:      m.stats.Issued - m.stats.WrongPathIssued,
		Issued:         m.stats.Issued,
		BrMispredicts:  m.stats.BrMispredicts,
		ResMispredicts: m.stats.ResMispredicts,
		RetMispredicts: m.stats.RetMispredicts,
		Resolves:       m.stats.Resolves,
		Predicts:       m.stats.Predicts,
		Flushes:        m.stats.Flushes,

		StallEmpty:   m.stats.EmptyFetchCycles,
		StallOperand: m.stats.OperandStallCycles,
		StallBranch:  m.stats.BranchStallCycles,
		StallResolve: m.stats.ResolveStallCycles,
		StallFU:      m.stats.FUStallCycles,

		L1IMisses: int64(m.Hier.L1I.Misses),
		L1DMisses: int64(m.Hier.L1D.Misses),
		L2Misses:  int64(m.Hier.L2.Misses),
	}
	if m.attr != nil {
		c.Attr = m.attr.Totals()
	}
	return c
}

// ---- stall accounting ----

// chargeCycle books k identical cycles' issue slots given why issue
// stopped; k > 1 only for a frozen run of zero-issue cycles. It is the
// only place empty slots are booked. A zero-issue cycle goes to the
// stall counter, per-branch book and run histogram of its cause
// (DESIGN.md §6 "Stall causes"); a run is a maximal streak of zero-issue
// cycles with the same histogram, ended by an issue or a change of
// histogram. With attribution on, every slot is charged to one cause:
// until the first post-flush issue, empty slots belong to the
// mispredicted branch being repaired, whatever the front end is doing
// meanwhile.
func (m *Machine) chargeCycle(issued int, cause attr.Cause, idx int, k int64) {
	if issued == 0 {
		var h *trace.Hist
		switch cause {
		case attr.CondWait:
			m.stats.OperandStallCycles += k
			m.stats.BranchStallCycles += k
			m.branchStats(idx).StallCycles += k
			h = &m.stats.StallRunBranch
		case attr.ResolveWindow:
			m.stats.OperandStallCycles += k
			m.stats.ResolveStallCycles += k
			m.branchStats(idx).StallCycles += k
			h = &m.stats.StallRunResolve
		case attr.LoadWait, attr.OperandWait:
			m.stats.OperandStallCycles += k
			h = &m.stats.StallRunOperand
		case attr.FUContention:
			m.stats.FUStallCycles += k
			h = &m.stats.StallRunFU
		default: // fetch, icache, exception, dbb_full
			m.stats.EmptyFetchCycles += k
			h = &m.stats.StallRunEmpty
		}
		if h != m.stallHist {
			m.endStallRun()
			m.stallHist = h
		}
		m.stallRun += k
	} else if m.stallRun > 0 {
		m.endStallRun()
	}
	if m.attr != nil {
		switch {
		case issued == 0 && m.repairStart >= 0:
			cause, idx = m.attrRepairCause, m.attrRepairIdx
		case cause == attr.OperandWait:
			// The stalled instruction is still the buffer head.
			cause, idx = m.loadCause(&m.pre[m.fbAt(0).pc])
		}
		m.attr.ChargeCycles(issued, cause, idx, k)
	}
}

// endStallRun closes the open stall run, recording its length in its
// histogram.
func (m *Machine) endStallRun() {
	if m.stallRun == 0 {
		return
	}
	m.stallHist.Observe(m.stallRun)
	m.stallRun, m.stallHist = 0, nil
}

// frontEndCause blames a cycle with nothing issuable: an outstanding
// fetch stall (I-cache miss or exception penalty), an over-subscribed
// DBB, or a plain front-end bubble. All four book the same stall counter,
// so only attribution needs them told apart.
func (m *Machine) frontEndCause() attr.Cause {
	switch {
	case m.attr == nil:
		return attr.Fetch
	case m.fetchStall > 0 && m.fetchStallIsICache:
		return attr.ICache
	case m.fetchStall > 0:
		return attr.Exception
	case m.dbbOcc > m.cfg.DBBEntries:
		return attr.DBBFull
	}
	return attr.Fetch
}

// loadCause splits an operand stall with no BR/RESOLVE in the blocked
// window, for attribution only: the in-flight load producing the first
// missing operand of pd, split out per load PC, else a non-load producer.
func (m *Machine) loadCause(pd *predecoded) (attr.Cause, int) {
	for _, r := range pd.uses {
		if m.regReady[r] > m.now {
			if wpc := m.regWriter[r]; wpc >= 0 && m.pre[wpc].flags&pdLoad != 0 {
				return attr.LoadWait, int(wpc)
			}
			break
		}
	}
	return attr.OperandWait, 0
}

// Run simulates to HALT (or an instruction/cycle cap) and returns stats.
// Only kernel dispatch refuses to start on a kernel-compile error: switch
// dispatch is the reference semantics and keeps the step-time fault. A
// machine narrower than one slot could never issue, so it is refused
// before the first cycle instead of spinning to the cycle cap.
func (m *Machine) Run() (*Stats, error) {
	if m.cfg.Width < 1 {
		m.finishStats()
		return &m.stats, fmt.Errorf("pipeline: issue width %d, want at least 1", m.cfg.Width)
	}
	if m.useKernels && m.preErr != nil {
		m.finishStats()
		return &m.stats, m.preErr
	}
	m.attachPipeview()
	if m.Sink != nil && m.Hier.OnMiss == nil {
		m.Hier.OnMiss = func(ms cache.Miss) {
			cause := trace.CauseDCache
			if ms.Inst {
				cause = trace.CauseICache
			}
			m.Sink.Emit(trace.Event{Kind: trace.KindCacheMiss, Cause: cause,
				Cycle: m.now, Seq: -1, Addr: ms.Addr, Val: ms.Latency})
		}
	}
	for {
		if m.now >= m.maxCycles {
			m.finishStats()
			return &m.stats, fmt.Errorf("pipeline: cycle limit %d reached at pc %d", m.maxCycles, m.fetchPC)
		}
		done, err := m.stepCycle()
		if err != nil {
			m.finishStats()
			return &m.stats, err
		}
		if done {
			break
		}
	}
	m.finishStats()
	return &m.stats, nil
}

// finishStats fills the derived/mirrored Stats fields and flushes any
// open stall run.
func (m *Machine) finishStats() {
	m.endStallRun()
	for w, n := range m.waited {
		m.stats.FetchToIssue.ObserveN(int64(w)+m.feDelay, n)
	}
	m.waited = [len(m.waited)]int64{}
	m.stats.Cycles = m.now
	m.stats.Committed = m.stats.Issued - m.stats.WrongPathIssued
	m.stats.L1DMissRate = m.Hier.L1D.MissRate()
	m.stats.L1IMissRate = m.Hier.L1I.MissRate()
	hits, misses := m.btb.Lookups()
	m.stats.BTBHits, m.stats.BTBMisses = int64(hits), int64(misses)
	m.stats.RASUnderflows = int64(m.ras.Underflows())
	if m.sampler != nil {
		m.sampler.Flush(m.now, m.sampleCounters(), m.winDBBHigh)
		m.stats.Samples = m.sampler.Series()
	}
	if m.attr != nil {
		m.stats.Attr = m.attr.Report()
	}
	if m.probe != nil {
		m.stats.Bpred = m.probe.Report(m.pred)
	}
	if m.pview != nil {
		m.pview.Finalize(m.now, m.infLen() == 0)
		m.stats.Pipeview = m.pview.Report()
	}
}

// done reports whether the committed HALT has drained the machine, or the
// committed-instruction cap is reached.
func (m *Machine) done() bool {
	if m.instrCapReached() {
		return true
	}
	if m.haltSeq >= 0 && m.infLen() == 0 {
		m.stats.Halted = true
		// All speculation resolved: every buffered store is committed.
		m.drainAll()
		return true
	}
	return false
}

// instrCapReached reports whether the committed-instruction cap is set
// and reached.
func (m *Machine) instrCapReached() bool {
	return m.cfg.MaxInstrs > 0 && m.stats.Issued-m.stats.WrongPathIssued >= m.cfg.MaxInstrs
}

// ---- in-flight speculation queue ----

func (m *Machine) infLen() int { return len(m.inflight) - m.infHead }

func (m *Machine) infFront() *specPoint { return &m.inflight[m.infHead] }

// infPush appends at the tail, compacting consumed head space only when
// the backing storage is full (occupancy is bounded by the issue width,
// since every speculation point resolves the cycle after it issues).
func (m *Machine) infPush(sp specPoint) {
	if len(m.inflight) == cap(m.inflight) && m.infHead > 0 {
		n := copy(m.inflight, m.inflight[m.infHead:])
		m.inflight = m.inflight[:n]
		m.infHead = 0
	}
	m.inflight = append(m.inflight, sp)
}

func (m *Machine) infPop() {
	m.infHead++
	if m.infHead == len(m.inflight) {
		m.inflight, m.infHead = m.inflight[:0], 0
	}
}

func (m *Machine) infClear() {
	m.inflight, m.infHead = m.inflight[:0], 0
}

// ---- register undo journal ----

// jMark returns the absolute journal position; writes recorded at or after
// a speculation point's mark are younger than it.
func (m *Machine) jMark() int64 { return m.jBase + int64(len(m.journal)) }

// journalWrite records the pre-write state of register d.
func (m *Machine) journalWrite(d isa.Reg) {
	m.journal = append(m.journal, regUndo{
		val:    m.st.Regs[d],
		ready:  m.regReady[d],
		writer: m.regWriter[d],
		reg:    d,
		poison: m.st.Poison[d],
	})
}

// rewindJournal undoes register writes newest-first back to mark and
// truncates the journal there, restoring the register file, poison bits
// and scoreboard exactly as they were when the mark was taken.
func (m *Machine) rewindJournal(mark int64) {
	tgt := int(mark - m.jBase)
	for i := len(m.journal) - 1; i >= tgt; i-- {
		u := &m.journal[i]
		m.st.Regs[u.reg] = u.val
		m.st.Poison[u.reg] = u.poison
		m.regReady[u.reg] = u.ready
		m.regWriter[u.reg] = u.writer
	}
	m.journal = m.journal[:tgt]
}

// releaseJournal discards undo records older than the oldest in-flight
// speculation point — no surviving mark can reach them. The copy-down
// moves at most the live window (bounded by the issue width), so it
// amortizes to O(1) per committed speculation point.
func (m *Machine) releaseJournal() {
	keep := m.jBase + int64(len(m.journal))
	if m.infLen() > 0 {
		keep = m.infFront().jMark
	}
	cut := int(keep - m.jBase)
	if cut <= 0 {
		return
	}
	n := copy(m.journal, m.journal[cut:])
	m.journal = m.journal[:n]
	m.jBase = keep
}

// ---- resolution ----

func (m *Machine) resolve() {
	for m.infLen() > 0 && m.infFront().resolveAt <= m.now {
		// sp stays a pointer into the queue's backing array: infPop only
		// advances the head, and nothing pushes before this iteration is
		// done with it.
		sp := m.infFront()
		m.infPop()
		fe := &sp.fe
		ins := &m.im.Instrs[fe.pc]
		addr := m.im.PCAddr(fe.pc)

		switch ins.Op {
		case isa.BR:
			m.stats.CondBranches++
			bs := m.branchStats(ins.BranchID)
			bs.Execs++
			if sp.mispredict {
				m.stats.BrMispredicts++
				bs.Mispredicts++
				m.pred.Restore(sp.spec.histCkpt)
				m.pred.PushHistory(sp.actualTaken)
			}
			m.pred.Update(addr, sp.actualTaken, sp.spec.meta)
			if m.probe != nil {
				m.probe.ObserveResolve(ins.BranchID, sp.actualTaken, sp.mispredict, &sp.spec.meta)
			}
			if sp.actualTaken {
				m.btb.Insert(addr, ins.Target)
			}
		case isa.RESOLVE:
			m.stats.Resolves++
			bs := m.branchStats(ins.BranchID)
			bs.Execs++
			// meta stays nil when the DBB entry was recycled or
			// invalidated: the update is suppressed, but the resolution
			// still counts toward the probe's outcome stream and books.
			var meta *bpred.Meta
			if e, ok := m.DBB.Read(sp.spec.dbbIdx); ok {
				if sp.mispredict {
					// Repair history: rewind to the predict's checkpoint
					// and push the actual outcome of the original branch.
					m.pred.Restore(e.histCkpt)
					m.pred.PushHistory(sp.actualTaken)
				}
				m.pred.Update(e.pc, sp.actualTaken, e.meta)
				meta = &e.meta
			}
			if m.probe != nil {
				m.probe.ObserveResolve(ins.BranchID, sp.actualTaken, sp.mispredict, meta)
			}
			if sp.mispredict {
				m.stats.ResMispredicts++
				bs.Mispredicts++
			}
		case isa.RET:
			if sp.mispredict {
				m.stats.RetMispredicts++
			}
		}

		if sp.mispredict {
			if m.Sink != nil {
				cause, _ := mispredictCause(ins.Op)
				if ins.Op == isa.RESOLVE {
					m.Sink.Emit(trace.Event{Kind: trace.KindResolveFire, Cause: cause, Cycle: m.now,
						Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(sp.redirectPC)})
				}
				m.Sink.Emit(trace.Event{Kind: trace.KindMispredict, Cause: cause, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(sp.redirectPC)})
			}
			m.flush(sp)
			return
		}
		m.releaseJournal()
		if m.cfg.debugCheckpoints {
			delete(m.debugSnaps, fe.seq)
		}
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindCommit, Cycle: m.now,
				Seq: fe.seq, PC: fe.pc, Ins: *ins})
		}
	}
}

// mispredictCause names a mispredicting speculation point's cause in the
// event stream and in the attribution books.
func mispredictCause(op isa.Op) (trace.Cause, attr.Cause) {
	switch op {
	case isa.BR:
		return trace.CauseBranch, attr.BrMispredict
	case isa.RESOLVE:
		return trace.CauseResolve, attr.ResMispredict
	}
	return trace.CauseReturn, attr.RetMispredict
}

// flush squashes everything younger than sp and redirects fetch.
func (m *Machine) flush(sp *specPoint) {
	wrongPath := m.stats.Issued - sp.issuedSnapshot
	ins := &m.im.Instrs[sp.fe.pc]
	tcause, acause := mispredictCause(ins.Op)
	if m.Sink != nil {
		m.Sink.Emit(trace.Event{Kind: trace.KindSquash, Cause: tcause, Cycle: m.now,
			Seq: sp.fe.seq, PC: sp.fe.pc, Val: wrongPath + int64(m.fbLen())})
	}
	if m.repairStart < 0 {
		m.repairStart = m.now
	}
	if m.attr != nil {
		// Blame the refill bubbles ahead on this flush, and re-charge the
		// wrong-path slots it already wasted from base work to the
		// mispredicted branch (RetMispredict ignores the BranchID).
		m.attrRepairCause, m.attrRepairIdx = acause, ins.BranchID
		m.attr.MoveWrongPath(acause, ins.BranchID, wrongPath)
	}
	m.stats.WrongPathIssued += wrongPath
	m.stats.SquashedFetched += int64(m.fbLen())
	m.fbClear()
	m.infClear() // all remaining are younger

	// Squash buffered stores younger than the speculation point, and
	// invalidate the last-writer index wholesale (generation bump).
	keep := m.sb[:0]
	for _, e := range m.sb {
		if e.seq < sp.fe.seq {
			keep = append(keep, e)
		}
	}
	m.sb = keep
	m.sbGen++

	// Rewind wrong-path register writes, then discard the now-dead
	// journal (nothing is in flight anymore).
	m.rewindJournal(sp.jMark)
	m.releaseJournal()
	m.st.Halted = sp.halted
	m.verifyCheckpoint(sp)

	if m.haltSeq > sp.fe.seq {
		m.haltSeq = -1
	}
	if m.pendFaultSeq > sp.fe.seq {
		m.pendFaultSeq, m.pendFaultErr = -1, nil
	}

	m.ras.Restore(sp.spec.rasCkpt)
	m.DBB.RestoreTail(sp.spec.dbbTailCkpt)
	m.dbbOcc = sp.spec.dbbOccCkpt

	m.fetchPC = sp.redirectPC
	m.fetchHalted = false
	m.fetchStall = 0
	m.lastFetchLine = math.MaxUint64
	m.underMispred = true
	m.stats.Flushes++
}

// verifyCheckpoint cross-checks the journal-rewound state against the full
// snapshot taken at issue (Config.debugCheckpoints only; no-op otherwise).
func (m *Machine) verifyCheckpoint(sp *specPoint) {
	if !m.cfg.debugCheckpoints {
		return
	}
	snap := m.debugSnaps[sp.fe.seq]
	if snap == nil {
		panic(fmt.Sprintf("pipeline: no debug snapshot for speculation point seq %d", sp.fe.seq))
	}
	if m.st.Regs != snap.regs || m.st.Poison != snap.poison ||
		m.regReady != snap.regReady || m.st.Halted != snap.halted {
		panic(fmt.Sprintf("pipeline: undo-log restore diverged from full snapshot at seq %d (pc %d)",
			sp.fe.seq, sp.fe.pc))
	}
	clear(m.debugSnaps) // every other pending snapshot was squashed
}

// commitFaultCheck surfaces a deferred fault once its instruction is no
// longer covered by any older speculation point (i.e. it committed).
func (m *Machine) commitFaultCheck() error {
	if m.pendFaultSeq < 0 {
		return nil
	}
	if m.infLen() == 0 || m.infFront().fe.seq > m.pendFaultSeq {
		if m.Sink != nil {
			var addr uint64
			var f *mem.Fault
			if errors.As(m.pendFaultErr, &f) {
				addr = f.Addr
			}
			m.Sink.Emit(trace.Event{Kind: trace.KindFault, Cycle: m.now,
				Seq: m.pendFaultSeq, Addr: addr})
		}
		return fmt.Errorf("pipeline: architectural fault at seq %d: %w", m.pendFaultSeq, m.pendFaultErr)
	}
	return nil
}

// ---- store buffer drain ----

func (m *Machine) frontier() int64 {
	if m.infLen() > 0 {
		return m.infFront().fe.seq
	}
	return math.MaxInt64
}

func (m *Machine) drainStores() {
	f := m.frontier()
	i := 0
	for i < len(m.sb) && m.sb[i].seq < f {
		m.mem.MustStore(m.sb[i].addr, m.sb[i].val)
		i++
	}
	if i > 0 {
		n := copy(m.sb, m.sb[i:])
		m.sb = m.sb[:n]
	}
}

func (m *Machine) drainAll() {
	for _, e := range m.sb {
		m.mem.MustStore(e.addr, e.val)
	}
	m.sb = m.sb[:0]
}

// ---- issue ----

func (m *Machine) fuLimit(fu isa.FU) int {
	switch fu {
	case isa.FUInt:
		return m.cfg.IntUnits
	case isa.FUMem:
		return m.cfg.MemUnits
	default:
		return m.cfg.FPUnits
	}
}

// issue issues up to Width instructions in order from the fetch buffer
// head and reports why it stopped: the cause that empty slots this cycle
// are blamed on, with the BranchID for cond_wait and resolve_window. It
// classifies only what will be charged: with attribution off, an operand
// stall after a partial issue skips the window scan. chargeCycle splits
// load_wait out of operand_wait for attribution.
//
// When it issued nothing, wake is the earliest cycle at which the head
// could issue or its cause change, unless the front end changes first:
// the end of the head's front-end delay, or the first ready cycle among
// its missing operands (load_wait can name another load from there). An
// empty buffer, or a head on a unit class with no units, has no such
// cycle (math.MaxInt64).
func (m *Machine) issue() (issued int, cause attr.Cause, idx int, wake int64) {
	var fuUsed [isa.NumFUClasses]int
	for m.fbLen() > 0 && issued < m.cfg.Width {
		fe := m.fbAt(0)
		if fe.readyAt > m.now {
			return issued, m.frontEndCause(), 0, fe.readyAt
		}
		pd := &m.pre[fe.pc]
		if m.regReady[pd.uses[0]] > m.now || m.regReady[pd.uses[1]] > m.now || m.regReady[pd.uses[2]] > m.now {
			if issued > 0 && m.attr == nil {
				return issued, attr.OperandWait, 0, 0
			}
			wake = math.MaxInt64
			for _, r := range pd.uses {
				if m.regReady[r] > m.now {
					wake = min(wake, m.regReady[r])
				}
			}
			// Blame the first BR/RESOLVE in the blocked window: the
			// stalled instruction is usually its condition slice.
			for k := 0; k < m.fbLen() && k < 6; k++ {
				switch kpd := &m.pre[m.fbAt(k).pc]; kpd.op {
				case isa.RESOLVE:
					return issued, attr.ResolveWindow, int(kpd.branch), wake
				case isa.BR:
					return issued, attr.CondWait, int(kpd.branch), wake
				}
			}
			return issued, attr.OperandWait, 0, wake
		}
		fu := pd.fu
		if fuUsed[fu] >= m.fuLimit(fu) {
			return issued, attr.FUContention, 0, math.MaxInt64
		}
		fuUsed[fu]++
		issued++
		// fe/fs stay valid across the pop: fbPop only advances the head,
		// and nothing pushes until the next fetch stage.
		fs := &m.fbSpec[m.fbHead]
		m.fbPop()
		m.issueOne(fe, fs, pd)
		if pd.op == isa.HALT {
			// Post-HALT drain: remaining slots are front-end bubbles.
			return issued, attr.Fetch, 0, 0
		}
	}
	return issued, m.frontEndCause(), 0, math.MaxInt64
}

func (m *Machine) issueOne(fe *fetchEntry, fs *fetchSpec, pd *predecoded) {
	m.stats.Issued++
	if w := m.now - fe.readyAt; w < int64(len(m.waited)) {
		m.waited[w]++
	} else {
		m.stats.FetchToIssue.Observe(w + m.feDelay)
	}
	if m.repairStart >= 0 {
		m.stats.RepairPenalty.Observe(m.now - m.repairStart)
		m.repairStart = -1
	}
	if m.Sink != nil {
		m.Sink.Emit(trace.Event{Kind: trace.KindIssue, Cycle: m.now,
			Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc]})
	}

	isSpec := pd.flags&pdSpec != 0
	var jmark int64
	var wasHalted bool
	if isSpec {
		jmark, wasHalted = m.jMark(), m.st.Halted
		if m.cfg.debugCheckpoints {
			if m.debugSnaps == nil {
				m.debugSnaps = map[int64]*debugSnap{}
			}
			m.debugSnaps[fe.seq] = &debugSnap{
				regs: m.st.Regs, poison: m.st.Poison,
				regReady: m.regReady, halted: m.st.Halted,
			}
		}
	}
	// Journal the pre-write state only when a mark could reach it: a
	// write with nothing in flight and no spec point issuing here can
	// never be rewound (every future mark is taken after it), so the
	// busiest path skips the journal entirely. A spec instruction takes
	// its own mark above, before its def write, so it always journals.
	if d := pd.def; d != isa.NoReg && (isSpec || m.infLen() > 0) {
		m.journalWrite(d)
	}

	m.st.PC = fe.pc
	m.curSeq = fe.seq
	var res exec.Result
	var err error
	if m.useKernels {
		if pd.pure != nil {
			// Pure register op: no fault, no memory access, no
			// speculation point — nothing downstream reads res or err,
			// so skip the kernel's Result/error return entirely.
			pd.pure(m.st)
			m.st.PC = fe.pc + 1
		} else {
			res, err = pd.kernel(m.st)
		}
	} else {
		res, err = exec.Step(m.st, &m.im.Instrs[fe.pc], false)
	}
	if err != nil && m.pendFaultSeq < 0 {
		// Defer: real only if this instruction commits. Copy a sentinel
		// Fault into stable storage so later wrong-path probes (which
		// reuse the sentinel) cannot clobber the deferred one.
		perr := err
		if f, ok := perr.(*mem.Fault); ok {
			m.pendFault = *f
			perr = &m.pendFault
		}
		m.pendFaultSeq, m.pendFaultErr = fe.seq, perr
	}

	completion := m.now + int64(pd.latency)
	if res.IsMem && err == nil {
		switch {
		case pd.flags&pdLoad != 0:
			if _, fwd := m.sbLookup(res.MemAddr); fwd {
				completion = m.now + int64(m.cfg.Hier.L1D.Latency)
			} else {
				completion = m.Hier.Data(m.now, res.MemAddr)
			}
		case pd.flags&pdStore != 0:
			m.Hier.Data(m.now, res.MemAddr) // address/tag access; nothing waits
		}
	}
	if d := pd.def; d != isa.NoReg {
		m.regReady[d] = completion
		m.regWriter[d] = int32(fe.pc)
	}
	if m.Sink != nil {
		// Writeback telemetry: emitted now (the scoreboard ready time is
		// known at issue), with the writeback cycle in Val.
		m.Sink.Emit(trace.Event{Kind: trace.KindComplete, Cycle: m.now,
			Seq: fe.seq, PC: fe.pc, Val: completion})
	}

	if isSpec {
		sp := specPoint{
			fe:        *fe,
			spec:      *fs,
			resolveAt: m.now + 1,
			halted:    wasHalted,
			jMark:     jmark,
		}
		switch pd.op {
		case isa.BR:
			sp.actualTaken = res.CondVal
			sp.mispredict = err == nil && res.CondVal != fs.predTaken
			sp.redirectPC = res.NextPC
		case isa.RESOLVE:
			sp.actualTaken = res.CondVal
			sp.mispredict = err == nil && res.Taken
			sp.redirectPC = res.NextPC
		case isa.RET:
			sp.mispredict = err == nil && res.NextPC != fs.predTarget
			sp.redirectPC = res.NextPC
		}
		sp.issuedSnapshot = m.stats.Issued
		m.infPush(sp)
	}

	if pd.op == isa.HALT {
		m.haltSeq = fe.seq
	}
}

// branchStats is the hot-path face of stats.branch: same map entries,
// BranchID-indexed memo.
func (m *Machine) branchStats(id int) *BranchStats {
	if id < len(m.brStats) {
		if b := m.brStats[id]; b != nil {
			return b
		}
	} else {
		nb := make([]*BranchStats, id+1)
		copy(nb, m.brStats)
		m.brStats = nb
	}
	b := m.stats.branch(id)
	m.brStats[id] = b
	return b
}

// ---- fetch buffer queue ----

// ringSize rounds n up to a power of two so ring indexes wrap with a
// mask instead of a modulo.
func ringSize(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

func (m *Machine) fbLen() int { return m.fbCnt }

// fbAt returns the k-th entry from the head (k < fbLen()).
func (m *Machine) fbAt(k int) *fetchEntry { return &m.fb[(m.fbHead+k)&m.fbMask] }

// fbPush appends at the tail of the ring; occupancy is bounded by
// FetchBufEntries (<= len(m.fb)), so the slot is always free. It returns
// the entry's cold slot, which holds stale garbage: callers pushing a
// speculation op must assign the whole fetchSpec; everyone else leaves
// it untouched (and it is never read).
func (m *Machine) fbPush(fe fetchEntry) *fetchSpec {
	slot := (m.fbHead + m.fbCnt) & m.fbMask
	m.fb[slot] = fe
	m.fbCnt++
	return &m.fbSpec[slot]
}

func (m *Machine) fbPop() {
	m.fbHead = (m.fbHead + 1) & m.fbMask
	m.fbCnt--
}

func (m *Machine) fbClear() {
	m.fbHead, m.fbCnt = 0, 0
}

// ---- fetch ----

// fetch runs the front end for k cycles; k > 1 only over a frozen run,
// where fetch is inert and only the stall counts down. Each pass of the
// loop takes one straight-line run (predecoded.run), clipped to the free
// fetch slots and buffer entries, or one control op.
func (m *Machine) fetch(k int64) {
	if m.fetchHalted {
		return
	}
	if m.fetchStall > 0 {
		m.fetchStall -= k
		return
	}
	fetched := 0
	readyAt := m.now + m.feDelay
	for fetched < m.cfg.Width && m.fbLen() < m.cfg.FetchBufEntries {
		pc := m.fetchPC
		if uint(pc) >= uint(len(m.pre)) {
			// Wrong-path fetch ran off the image; wait for the flush.
			m.fetchHalted = true
			return
		}
		addr := m.im.PCAddr(pc)
		if line := addr &^ (fetchLine - 1); line != m.lastFetchLine {
			extra := m.Hier.Inst(addr)
			m.lastFetchLine = line
			if extra > 0 {
				m.stats.ICacheMisses++
				if m.underMispred {
					m.stats.ICacheMissUnderMispred++
				}
				m.underMispred = false
				m.fetchStall = extra
				m.fetchStallIsICache = true
				return
			}
			m.underMispred = false
		}

		pd := &m.pre[pc]
		if pd.run > 0 {
			n := min(int(pd.run), m.cfg.Width-fetched, m.cfg.FetchBufEntries-m.fbLen())
			tail, seq := m.fbHead+m.fbCnt, m.seq
			for i := range n {
				fe := fetchEntry{seq: seq + int64(i), pc: pc + i, readyAt: readyAt}
				m.fb[(tail+i)&m.fbMask] = fe
				if m.Sink != nil {
					m.Sink.Emit(trace.Event{Kind: trace.KindFetch, Cycle: m.now,
						Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc]})
				}
			}
			m.fbCnt += n
			m.seq += int64(n)
			m.stats.Fetched += int64(n)
			m.fetchPC += n
			fetched += n
			continue
		}

		ins := &m.im.Instrs[pc]
		fe := fetchEntry{seq: m.seq, pc: pc, readyAt: readyAt}
		m.seq++
		fetched++
		m.stats.Fetched++
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindFetch, Cycle: m.now,
				Seq: fe.seq, PC: fe.pc, Ins: *ins})
		}

		switch pd.op {
		case isa.JMP:
			m.fbPush(fe)
			m.fetchPC = ins.Target
			return // taken redirect ends the fetch group
		case isa.CALL:
			m.ras.Push(m.fetchPC + 1)
			m.fbPush(fe)
			m.fetchPC = ins.Target
			return
		case isa.RET:
			rasCkpt := m.ras.Checkpoint()
			tgt, ok := m.ras.Pop()
			if !ok {
				tgt = m.fetchPC + 1 // underflow: sequential guess
			}
			*m.fbPush(fe) = fetchSpec{
				predTarget:  tgt,
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     rasCkpt,
				dbbTailCkpt: m.DBB.Tail(),
			}
			m.fetchPC = tgt
			return
		case isa.BR:
			fs := fetchSpec{
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     m.ras.Checkpoint(),
				dbbTailCkpt: m.DBB.Tail(),
				dbbOccCkpt:  m.dbbOcc,
			}
			taken, meta := m.pred.Predict(addr)
			m.pred.PushHistory(taken)
			m.btb.Lookup(addr)
			fs.predTaken, fs.meta = taken, meta
			*m.fbPush(fe) = fs
			if taken {
				m.fetchPC = ins.Target
				return
			}
			m.fetchPC++
		case isa.PREDICT:
			// Consumed by the front end: steer fetch, fill the DBB, drop.
			ckpt := m.pred.Checkpoint()
			taken, meta := m.pred.Predict(addr)
			m.pred.PushHistory(taken)
			m.DBB.Insert(addr, taken, meta, ckpt)
			m.stats.Predicts++
			if m.attr != nil && m.dbbOcc >= m.cfg.DBBEntries {
				m.attr.NoteDBBOverflow()
			}
			m.dbbOcc++
			if m.dbbOcc > m.stats.MaxDBBOccupancy {
				m.stats.MaxDBBOccupancy = m.dbbOcc
			}
			if m.dbbOcc > m.winDBBHigh {
				m.winDBBHigh = m.dbbOcc
			}
			m.stats.DBBOccupancy.Observe(int64(m.dbbOcc))
			if m.Sink != nil {
				m.Sink.Emit(trace.Event{Kind: trace.KindDBBPush, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(m.dbbOcc)})
			}
			if taken {
				m.fetchPC = ins.Target
				return
			}
			m.fetchPC++
		case isa.RESOLVE:
			// Statically predicted not-taken; carries the DBB tail index.
			*m.fbPush(fe) = fetchSpec{
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     m.ras.Checkpoint(),
				dbbIdx:      m.DBB.Tail(),
				dbbTailCkpt: m.DBB.Tail(),
				dbbOccCkpt:  m.dbbOcc,
			}
			if m.dbbOcc > 0 {
				m.dbbOcc--
			}
			m.stats.DBBOccupancy.Observe(int64(m.dbbOcc))
			if m.Sink != nil {
				m.Sink.Emit(trace.Event{Kind: trace.KindDBBPop, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(m.dbbOcc)})
			}
			m.fetchPC++
		case isa.HALT:
			m.fbPush(fe)
			m.fetchHalted = true
			return
		}
	}
}
