// Package sched implements the block-local, latency-weighted list
// scheduler applied to BOTH the baseline and the transformed programs, so
// that speedups measured for the decomposed branch transformation come
// from the transformation itself and not from scheduling disparity.
//
// For an in-order machine the instruction order within a block IS the
// issue order, so the scheduler's job is to order independent work (long
// latency loads first) ahead of its consumers while respecting data and
// memory dependences. Memory disambiguation is offset-based: accesses
// through the same base register with different offsets are independent;
// anything else is conservatively ordered (the paper's DBT substrate has
// data-speculation hardware; we only rely on it where provably safe).
//
// Scheduling a region is near-linear in its size: register dependences
// come from per-register last-writer and reader tables, and each cycle's
// issue candidates come from per-unit ready heaps (see DESIGN.md,
// "Scheduler cost").
package sched

import (
	"vanguard/internal/ir"
	"vanguard/internal/isa"
)

// Model describes the machine the scheduler targets.
type Model struct {
	Width       int
	IntUnits    int
	MemUnits    int
	FPUnits     int
	LoadLatency int // expected load-to-use latency (L1 hit)
}

// DefaultModel returns the Table 1 machine model at the given width.
func DefaultModel(width int) Model {
	return Model{Width: width, IntUnits: 2, MemUnits: 2, FPUnits: 4, LoadLatency: 4}
}

// Program schedules every block of every function in place.
func Program(p *ir.Program, m Model) {
	s := &scheduler{m: m}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.block(b)
		}
	}
}

// Block reorders one block in place. Terminators and any control
// instruction (e.g. a mid-block CALL) act as scheduling barriers.
func Block(b *ir.Block, m Model) {
	(&scheduler{m: m}).block(b)
}

// latency returns the scheduling latency of an instruction.
func (m Model) latency(ins isa.Instr) int {
	if ins.IsLoad() {
		return m.LoadLatency
	}
	return ins.Op.Latency()
}

// limit returns how many instructions of a unit class issue per cycle.
func (m Model) limit(fu isa.FU) int {
	switch fu {
	case isa.FUMem:
		return m.MemUnits
	case isa.FUFP:
		return m.FPUnits
	}
	return m.IntUnits
}

// memOrdered reports whether memory operation j (later) must stay after
// memory operation i (earlier): at least one of them stores, and they are
// not provably disjoint words through the same base register.
func memOrdered(i, j isa.Instr) bool {
	if !i.IsStore() && !j.IsStore() {
		return false
	}
	return i.Src1 != j.Src1 || i.Imm == j.Imm
}

// scheduler holds the scratch state of one Program or Block call. Every
// slice is reused from region to region, so scheduling the many short
// regions of a program allocates almost nothing.
type scheduler struct {
	m Model

	// Register tables, indexed by register; each holds 1 + an index into
	// the current region, 0 meaning none. lastWriter is the latest
	// instruction defining the register; lastReader heads the list,
	// chained through readerNext, of the use slots (3*index + operand)
	// reading the register since that write.
	lastWriter [256]int32
	lastReader [256]int32
	readerNext []int32

	// Dependence graph: the successors of instruction i are the
	// edgeTo[e-1] for e = succHead[i], edgeNext[e-1], ... until 0.
	succHead []int32
	edgeTo   []int32
	edgeNext []int32
	lastSucc []int32 // 1 + the latest successor added to i, to drop duplicate edges
	npreds   []int32
	mems     []int32 // memory operations seen so far, in order

	lat     []int32
	prio    []int32
	readyAt []int32

	ready   [isa.NumFUClasses]keyHeap // ordered by (prio desc, index asc)
	pending keyHeap                   // released, waiting on latency; ordered by readyAt
}

// block schedules each barrier-delimited region of b independently.
func (s *scheduler) block(b *ir.Block) {
	out := make([]isa.Instr, 0, len(b.Instrs))
	start := 0
	for i, ins := range b.Instrs {
		if ins.IsControl() {
			out = s.region(out, b.Instrs[start:i])
			out = append(out, ins)
			start = i + 1
		}
	}
	b.Instrs = s.region(out, b.Instrs[start:])
}

// resize returns buf with length n and every element zero.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// region list-schedules a straight-line run of instructions and appends
// them, in issue order, to out.
func (s *scheduler) region(out, ins []isa.Instr) []isa.Instr {
	n := len(ins)
	if n <= 1 {
		return append(out, ins...)
	}
	s.graph(ins)

	// Critical-path priorities: successors always follow their
	// predecessors, so one backward pass sees every successor first.
	s.prio = resize(s.prio, n)
	for i := n - 1; i >= 0; i-- {
		p := int32(0)
		for e := s.succHead[i]; e != 0; e = s.edgeNext[e-1] {
			p = max(p, s.prio[s.edgeTo[e-1]])
		}
		s.prio[i] = p + s.lat[i]
	}

	// Greedy machine-model walk. An instruction enters pending when its
	// last predecessor issues, which fixes its readyAt, and moves to its
	// unit's ready heap at the start of the first cycle at or past
	// readyAt, never in the cycle that released it.
	s.readyAt = resize(s.readyAt, n)
	for i := range ins {
		if s.npreds[i] == 0 {
			s.ready[ins[i].Op.Unit()].push(s.readyKey(int32(i)))
		}
	}
	cycle := int32(0)
	for issuedAll := 0; issuedAll < n; cycle++ {
		if s.idle() {
			cycle = max(cycle, keyHigh(s.pending[0]))
		}
		for len(s.pending) > 0 && keyHigh(s.pending[0]) <= cycle {
			i := keyIndex(s.pending.pop())
			s.ready[ins[i].Op.Unit()].push(s.readyKey(i))
		}
		var used [isa.NumFUClasses]int
		for issued := 0; issued < s.m.Width; issued++ {
			fu := -1
			for c := range s.ready {
				if len(s.ready[c]) > 0 && used[c] < s.m.limit(isa.FU(c)) &&
					(fu < 0 || s.ready[c][0] < s.ready[fu][0]) {
					fu = c
				}
			}
			if fu < 0 {
				break
			}
			used[fu]++
			i := keyIndex(s.ready[fu].pop())
			out = append(out, ins[i])
			issuedAll++
			t := cycle + s.lat[i]
			for e := s.succHead[i]; e != 0; e = s.edgeNext[e-1] {
				j := s.edgeTo[e-1]
				s.readyAt[j] = max(s.readyAt[j], t)
				if s.npreds[j]--; s.npreds[j] == 0 {
					s.pending.push(int64(s.readyAt[j])<<32 | int64(j))
				}
			}
		}
	}
	return out
}

// graph builds the dependence graph of a region: an edge i -> j for a
// subset of the pairs that must stay ordered, whose transitive closure is
// all of them. Register edges come from the last writer of each register
// (RAW, WAW) and from its readers since that write (WAR); memory edges
// compare memory operations only with each other.
func (s *scheduler) graph(ins []isa.Instr) {
	n := len(ins)
	s.lat = resize(s.lat, n)
	s.succHead = resize(s.succHead, n)
	s.lastSucc = resize(s.lastSucc, n)
	s.npreds = resize(s.npreds, n)
	s.readerNext = resize(s.readerNext, 3*n)
	s.edgeTo, s.edgeNext, s.mems = s.edgeTo[:0], s.edgeNext[:0], s.mems[:0]

	for j, in := range ins {
		s.lat[j] = int32(s.m.latency(in))
		u1, u2, u3 := in.Uses()
		uses := [3]isa.Reg{u1, u2, u3}
		for _, r := range uses {
			if r != isa.NoReg && s.lastWriter[r] != 0 {
				s.edge(s.lastWriter[r]-1, j) // RAW
			}
		}
		d := in.Def()
		if d != isa.NoReg {
			if s.lastWriter[d] != 0 {
				s.edge(s.lastWriter[d]-1, j) // WAW
			}
			for u := s.lastReader[d]; u != 0; u = s.readerNext[u-1] {
				s.edge((u-1)/3, j) // WAR
			}
			s.lastWriter[d] = int32(j) + 1
			s.lastReader[d] = 0
		}
		// A reader of its own destination is that register's last writer,
		// so later writers order after it through the WAW edge.
		for k, r := range uses {
			if r != isa.NoReg && r != d {
				slot := 3*j + k
				s.readerNext[slot] = s.lastReader[r]
				s.lastReader[r] = int32(slot) + 1
			}
		}
		if in.IsMem() {
			for _, i := range s.mems {
				if memOrdered(ins[i], in) {
					s.edge(i, j)
				}
			}
			s.mems = append(s.mems, int32(j))
		}
	}

	for _, in := range ins {
		if d := in.Def(); d != isa.NoReg {
			s.lastWriter[d], s.lastReader[d] = 0, 0
		}
		u1, u2, u3 := in.Uses()
		for _, r := range [3]isa.Reg{u1, u2, u3} {
			if r != isa.NoReg {
				s.lastReader[r] = 0
			}
		}
	}
}

// edge records that j must stay after i, once per pair.
func (s *scheduler) edge(i int32, j int) {
	if s.lastSucc[i] == int32(j)+1 {
		return
	}
	s.lastSucc[i] = int32(j) + 1
	s.edgeTo = append(s.edgeTo, int32(j))
	s.edgeNext = append(s.edgeNext, s.succHead[i])
	s.succHead[i] = int32(len(s.edgeTo))
	s.npreds[j]++
}

// idle reports whether no unit has a ready instruction.
func (s *scheduler) idle() bool {
	for _, h := range s.ready {
		if len(h) > 0 {
			return false
		}
	}
	return true
}

// readyKey orders ready instructions by priority, highest first, then by
// original position.
func (s *scheduler) readyKey(i int32) int64 {
	return int64(-s.prio[i])<<32 | int64(i)
}

// keyHigh and keyIndex split a heap key into its ordering value and its
// instruction index.
func keyHigh(k int64) int32  { return int32(k >> 32) }
func keyIndex(k int64) int32 { return int32(uint32(k)) }

// keyHeap is a binary min-heap of keys packing an ordering value in the
// high 32 bits over an instruction index in the low 32, so keys are
// distinct and compare as (value, index).
type keyHeap []int64

func (h *keyHeap) push(k int64) {
	a := append(*h, k)
	for c := len(a) - 1; c > 0; {
		p := (c - 1) / 2
		if a[p] <= a[c] {
			break
		}
		a[p], a[c] = a[c], a[p]
		c = p
	}
	*h = a
}

func (h *keyHeap) pop() int64 {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && a[c+1] < a[c] {
			c++
		}
		if a[p] <= a[c] {
			break
		}
		a[p], a[c] = a[c], a[p]
		p = c
	}
	*h = a
	return top
}
