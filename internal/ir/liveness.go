package ir

import (
	"fmt"

	"vanguard/internal/isa"
)

// Liveness holds the per-block live-in/live-out register sets of a
// function, computed by the standard backward dataflow iteration, and
// each block's predecessor count (NumPreds).
//
// It also keeps what the solution is computed from: each block's summary
// (upward-exposed uses, definitions, successors) and the block order. A
// pass that edits a function a few blocks at a time keeps one Liveness
// across its edits instead of recomputing it. At each edit site it calls
// Invalidate on the blocks it rewrote, and Remap first when the edit
// inserted or deleted blocks; Update then rescans only those blocks and
// reruns the fixpoint over the cached summaries. Invalidation is the
// editor's job: a rewritten block that is not invalidated keeps its old
// summary, and In/Out stop matching ComputeLiveness of the function.
type Liveness struct {
	In  []RegSet
	Out []RegSet

	sum      []blockSummary
	cfgStale bool  // Remap ran: every block's successors are reread
	solved   bool  // In/Out match the summaries
	order    []int // reverse postorder over the cached successors
	npred    []int // CFG edges into each block over the cached successors
	rpo      rpoScratch
	spare    []blockSummary // Remap's second buffer
}

// blockSummary is what the fixpoint needs of one block.
type blockSummary struct {
	use, def RegSet // registers read before any write, registers written
	succ     [2]int
	nsucc    int
	stale    bool // rescan the block's instructions at the next Update
}

// ComputeLiveness runs the backward may-liveness analysis. Because the IR
// has no explicit function-exit live set, registers read by RET (the return
// address) and anything a caller might consume must be modelled by the
// caller of this analysis; for the hoisting legality checks performed by
// the decomposed branch transformation, block-level precision within the
// function is what matters.
func ComputeLiveness(f *Func) *Liveness {
	lv := &Liveness{}
	lv.Remap(len(f.Blocks), func(int) int { return -1 })
	lv.Update(f)
	return lv
}

// Invalidate marks blocks whose instructions an edit changed; the next
// Update rescans them.
func (lv *Liveness) Invalidate(blocks ...int) {
	for _, b := range blocks {
		lv.sum[b].stale = true
	}
	lv.solved = false
}

// Remap renumbers the summaries after an edit that inserted or deleted
// blocks, leaving n blocks: old block i becomes block to(i), or is gone
// when to(i) < 0. A new block (one no old block maps to) starts
// invalidated. Remap does not invalidate the moved blocks: the caller
// invalidates those it rewrote. Every block's successors are reread at
// the next Update, since an inserted or deleted block changes the
// fall-through of its neighbour.
func (lv *Liveness) Remap(n int, to func(int) int) {
	next := lv.spare[:0]
	for range n {
		next = append(next, blockSummary{stale: true})
	}
	for i, s := range lv.sum {
		if j := to(i); j >= 0 {
			next[j] = s
		}
	}
	lv.sum, lv.spare = next, lv.sum
	lv.cfgStale, lv.solved = true, false
}

// Update brings In/Out up to date with f after the edits Invalidate and
// Remap recorded: it rescans the invalidated blocks, rebuilds the order
// if any block's successors changed, and reruns the fixpoint. It panics
// when f's block count differs from the summaries', which means an edit
// that inserted or deleted blocks did not call Remap.
func (lv *Liveness) Update(f *Func) {
	if len(f.Blocks) != len(lv.sum) {
		panic(fmt.Sprintf("ir: liveness of %d blocks updated against func %q of %d blocks (missing Remap)",
			len(lv.sum), f.Name, len(f.Blocks)))
	}
	reorder := lv.cfgStale // the order holds the old numbering
	for i := range lv.sum {
		s := &lv.sum[i]
		if !s.stale && !lv.cfgStale {
			continue
		}
		if s.stale {
			s.scan(f.Blocks[i])
		}
		if succ, n := f.Succs(i); succ != s.succ || n != s.nsucc {
			s.succ, s.nsucc = succ, n
			reorder = true
		}
	}
	if reorder {
		lv.order = lv.rpo.order(len(lv.sum), lv.succs)
		lv.countPreds()
	}
	lv.cfgStale = false
	if !lv.solved {
		lv.solve()
	}
}

// scan recomputes the block's uses and definitions from its instructions.
func (s *blockSummary) scan(b *Block) {
	s.use, s.def, s.stale = RegSet{}, RegSet{}, false
	for _, ins := range b.Instrs {
		u1, u2, u3 := ins.Uses()
		for _, u := range [...]isa.Reg{u1, u2, u3} {
			if u != isa.NoReg && !s.def.Has(u) {
				s.use.Add(u)
			}
		}
		s.def.Add(ins.Def())
	}
}

// countPreds recounts every block's CFG in-edges over the cached
// successors.
func (lv *Liveness) countPreds() {
	lv.npred = append(lv.npred[:0], make([]int, len(lv.sum))...)
	for i := range lv.sum {
		s := &lv.sum[i]
		for _, t := range s.succ[:s.nsucc] {
			lv.npred[t]++
		}
	}
}

// NumPreds returns the number of CFG edges into block i as of the last
// Update: Func.NumPreds of the function, without its scan.
func (lv *Liveness) NumPreds(i int) int { return lv.npred[i] }

// succs reads the cached successors of block i.
func (lv *Liveness) succs(i int) ([2]int, int) { return lv.sum[i].succ, lv.sum[i].nsucc }

// solve iterates the dataflow equations to their least fixpoint over the
// cached summaries, in postorder (reverse of RPO) for fast convergence.
func (lv *Liveness) solve() {
	n := len(lv.sum)
	lv.In, lv.Out = resetSets(lv.In, n), resetSets(lv.Out, n)
	for changed := true; changed; {
		changed = false
		for k := len(lv.order) - 1; k >= 0; k-- {
			i := lv.order[k]
			s := &lv.sum[i]
			var out RegSet
			for _, t := range s.succ[:s.nsucc] {
				out = out.Union(lv.In[t])
			}
			in := s.use.Union(RegSet{out[0] &^ s.def[0], out[1] &^ s.def[1]})
			if !out.Equal(lv.Out[i]) || !in.Equal(lv.In[i]) {
				lv.Out[i], lv.In[i] = out, in
				changed = true
			}
		}
	}
	lv.solved = true
}

// resetSets returns s resized to n empty sets, reusing its storage.
func resetSets(s []RegSet, n int) []RegSet {
	if cap(s) < n {
		return make([]RegSet, n, n+n/4)
	}
	s = s[:n]
	clear(s)
	return s
}
