package bpred

// BTB is a direct-mapped branch target buffer (Table 1: 4K entries) mapping
// branch PCs to their taken targets. For the fixed-width vanguard ISA the
// front end can decode targets directly from the fetch group, but the BTB
// is still modelled (and its hit rate reported) for fidelity of the
// machine description.
type BTB struct {
	tags    []uint64
	targets []int
	valid   []bool
	mask    uint64
	hits    uint64
	misses  uint64
}

// NewBTB builds a BTB with 2^logSize entries.
func NewBTB(logSize int) *BTB {
	n := 1 << logSize
	return &BTB{
		tags:    make([]uint64, n),
		targets: make([]int, n),
		valid:   make([]bool, n),
		mask:    uint64(n - 1),
	}
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target int, ok bool) {
	i := pc & b.mask
	if b.valid[i] && b.tags[i] == pc {
		b.hits++
		return b.targets[i], true
	}
	b.misses++
	return 0, false
}

// Insert records a taken branch's target.
func (b *BTB) Insert(pc uint64, target int) {
	i := pc & b.mask
	b.tags[i], b.targets[i], b.valid[i] = pc, target, true
}

// Lookups returns the raw hit/miss counters (surfaced in run reports).
func (b *BTB) Lookups() (hits, misses uint64) { return b.hits, b.misses }

// RAS is the return address stack (Table 1: 64 entries). It wraps rather
// than overflowing, like real hardware.
type RAS struct {
	stack      []int
	top        int // index of next push slot
	depth      int // live entries, capped at len(stack)
	underflows uint64
}

// NewRAS builds a RAS with the given number of entries.
func NewRAS(entries int) *RAS {
	return &RAS{stack: make([]int, entries)}
}

// Push records a return address at a call.
func (r *RAS) Push(retPC int) {
	r.stack[r.top] = retPC
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false when the stack has
// underflowed (the prediction is garbage and the caller should expect a
// misfetch).
func (r *RAS) Pop() (retPC int, ok bool) {
	if r.depth == 0 {
		r.underflows++
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// RASCkpt snapshots the stack pointer state for misprediction repair.
type RASCkpt struct {
	top, depth int
}

// Checkpoint captures the pointer state (entries themselves may be
// clobbered by deep wrong-path call chains — a modelled imperfection real
// hardware shares).
func (r *RAS) Checkpoint() RASCkpt { return RASCkpt{r.top, r.depth} }

// Restore rewinds to a checkpoint.
func (r *RAS) Restore(c RASCkpt) { r.top, r.depth = c.top, c.depth }

// Underflows returns how many predictions were attempted on an empty
// stack (each is a likely misfetch; surfaced in run reports).
func (r *RAS) Underflows() uint64 { return r.underflows }
