// Package core implements the paper's contribution: the Decomposed Branch
// Transformation. A profiled, predictable-but-unbiased forward branch
//
//	A:  [pre] [cond slice] br cond -> C    (fall through to B)
//
// is rewritten into the Figure 5(d) shape
//
//	A:   [pre] predict -> CA'
//	BA': [cond slice] [hoisted from B] resolve(expect NT) -> Correct-C
//	B':  [temp moves] [rest of B]
//	CA': [cond slice] [hoisted from C] resolve(expect T)  -> Correct-B
//	C':  [temp moves] [rest of C]
//	Correct-C: [C's hoisted work, non-speculative] jmp C'
//	Correct-B: [B's hoisted work, non-speculative] jmp B'
//
// The control-flow divergence moves up to the predict instruction — before
// the condition is computed — so the compiler can overlap the condition
// slice with independent work (especially loads) hoisted from the likely
// successors, while the resolve instructions become highly biased
// (taken only on a misprediction).
//
// Safety discipline (Section 3 of the paper): hoisted loads become
// non-faulting LDS; stores are never hoisted; a hoisted instruction may
// only define a register that is dead on the alternate path, otherwise it
// is renamed to a free temporary that is committed by a mov below the
// resolution point ("shadow register" commit); correction blocks
// re-execute the alternate path's hoisted work non-speculatively.
package core

import (
	"fmt"
	"sort"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/profile"
)

// Options tune branch selection and hoisting.
type Options struct {
	// MinGap is the paper's selection heuristic: transform forward
	// branches whose predictability exceeds bias by at least this much
	// (the paper found 5% best).
	MinGap float64
	// MinExecs filters cold branches out of consideration.
	MinExecs int64
	// MaxHoist caps the instructions hoisted from each successor.
	MaxHoist int
	// MaxConvert caps the number of converted branches (0 = no cap).
	MaxConvert int
	// NoSlicePushdown disables moving the condition slice into the
	// resolution blocks (ablation: how much of the win comes from
	// overlapping the slice with hoisted work).
	NoSlicePushdown bool
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{MinGap: 0.05, MinExecs: 64, MaxHoist: 12}
}

// Converted records one transformed branch.
type Converted struct {
	ID             int
	Bias           float64
	Predictability float64
	Execs          int64
	SlicePushed    int // condition-slice instructions pushed into the A' blocks
	HoistedB       int // instructions hoisted from the fall-through successor
	HoistedC       int // instructions hoisted from the taken successor
	BlockBSize     int // original successor sizes (PHI denominator)
	BlockCSize     int
	Temps          int // shadow temporaries allocated
}

// Report summarizes a whole-program transformation.
type Report struct {
	Converted    []Converted
	Skipped      map[int]string // branch ID -> reason
	StaticBefore int
	StaticAfter  int
	// ForwardStatic counts profiled forward branches considered (PBC
	// denominator).
	ForwardStatic int
}

// PISCS returns the % increase in static code size.
func (r *Report) PISCS() float64 {
	if r.StaticBefore == 0 {
		return 0
	}
	return 100 * float64(r.StaticAfter-r.StaticBefore) / float64(r.StaticBefore)
}

// PBC returns the % of profiled static forward branches converted.
func (r *Report) PBC() float64 {
	if r.ForwardStatic == 0 {
		return 0
	}
	return 100 * float64(len(r.Converted)) / float64(r.ForwardStatic)
}

// Transform applies the decomposed branch transformation in place to every
// profitable branch in p, most-executed first.
func Transform(p *ir.Program, prof *profile.Profile, opt Options) (*Report, error) {
	return newPass(p).transform(prof, opt)
}

func (ps *pass) transform(prof *profile.Profile, opt Options) (*Report, error) {
	p := ps.p
	rep := &Report{Skipped: make(map[int]string), StaticBefore: p.NumInstrs()}

	// Rank candidates by the selection heuristic.
	var cands []*profile.Branch
	for _, b := range prof.ByID {
		if !b.Forward {
			continue
		}
		rep.ForwardStatic++
		switch {
		case b.Execs < opt.MinExecs:
			rep.Skipped[b.ID] = "cold"
		case b.Predictability()-b.Bias() < opt.MinGap:
			rep.Skipped[b.ID] = "predictability-bias gap below threshold"
		default:
			cands = append(cands, b)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Execs != cands[j].Execs {
			return cands[i].Execs > cands[j].Execs
		}
		return cands[i].ID < cands[j].ID
	})

	for _, cand := range cands {
		if opt.MaxConvert > 0 && len(rep.Converted) >= opt.MaxConvert {
			rep.Skipped[cand.ID] = "conversion cap reached"
			continue
		}
		fi, bi := findBranch(p, cand.ID)
		if fi < 0 {
			rep.Skipped[cand.ID] = "branch not found in IR"
			continue
		}
		conv, reason := ps.decompose(fi, bi, cand, opt)
		if conv == nil {
			rep.Skipped[cand.ID] = reason
			continue
		}
		rep.Converted = append(rep.Converted, *conv)
	}

	rep.StaticAfter = p.NumInstrs()
	if err := p.Verify(); err != nil {
		return rep, fmt.Errorf("core: transformed program invalid: %w", err)
	}
	return rep, nil
}

// pass is the state one whole-program pass keeps across its edits: the
// maintained liveness of each function it has queried. Every edit site
// invalidates the blocks it rewrote, and remaps block numbers when it
// inserted or deleted blocks, so the liveness the next candidate sees
// equals ir.ComputeLiveness of the function as edited so far.
type pass struct {
	p    *ir.Program
	live []*ir.Liveness // by function index; nil until first queried
	// checkLive, when set (tests only), runs after every edit with the
	// edited function and its maintained liveness brought up to date.
	checkLive func(f *ir.Func, lv *ir.Liveness)
}

func newPass(p *ir.Program) *pass {
	return &pass{p: p, live: make([]*ir.Liveness, len(p.Funcs))}
}

// liveness returns the liveness of function fi, up to date with every
// edit recorded so far.
func (ps *pass) liveness(fi int) *ir.Liveness {
	f := ps.p.Funcs[fi]
	if ps.live[fi] == nil {
		ps.live[fi] = ir.ComputeLiveness(f)
	} else {
		ps.live[fi].Update(f)
	}
	return ps.live[fi]
}

// edited is called by every edit site once it has recorded its
// invalidations in the liveness of function fi.
func (ps *pass) edited(fi int) {
	if ps.checkLive != nil {
		ps.checkLive(ps.p.Funcs[fi], ps.liveness(fi))
	}
}

// retarget renumbers the block target of blk's terminator, the one
// instruction of a block that can carry one, after blocks were inserted
// or deleted.
func retarget(blk *ir.Block, to func(int) int) {
	if t, ok := blk.Terminator(); ok {
		switch t.Op {
		case isa.BR, isa.JMP, isa.PREDICT, isa.RESOLVE:
			blk.Instrs[len(blk.Instrs)-1].Target = to(t.Target)
		}
	}
}

// findBranch locates the block ending in the BR with the given ID.
func findBranch(p *ir.Program, id int) (fi, bi int) {
	for f, fn := range p.Funcs {
		for b, blk := range fn.Blocks {
			if t, ok := blk.Terminator(); ok && t.Op == isa.BR && t.BranchID == id {
				return f, b
			}
		}
	}
	return -1, -1
}
