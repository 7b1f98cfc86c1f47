package core

import (
	"sort"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/profile"
)

// SpeculateBiased is the Figure 1 complement to the decomposed branch
// transformation: classic superblock-style control speculation for
// HIGHLY-BIASED branches. Work from the dominant successor is hoisted
// above the branch itself (loads become non-faulting, live-range conflicts
// are renamed through shadow temporaries), so the likely path issues
// without waiting for the branch. It is applied to both the baseline and
// the experimental binaries — it is prior art, not the contribution.
type SpeculateOptions struct {
	// BiasThreshold is the minimum dominant-direction frequency.
	BiasThreshold float64
	MinExecs      int64
	MaxHoist      int
}

// DefaultSpeculateOptions matches common superblock practice.
func DefaultSpeculateOptions() SpeculateOptions {
	return SpeculateOptions{BiasThreshold: 0.95, MinExecs: 64, MaxHoist: 8}
}

// SpeculateReport summarizes the biased-speculation pass.
type SpeculateReport struct {
	Speculated []int // branch IDs
	Hoisted    int   // total instructions hoisted above branches
}

// SpeculateBiasedBranches applies the pass in place.
func SpeculateBiasedBranches(p *ir.Program, prof *profile.Profile, opt SpeculateOptions) (*SpeculateReport, error) {
	return newPass(p).speculate(prof, opt)
}

func (ps *pass) speculate(prof *profile.Profile, opt SpeculateOptions) (*SpeculateReport, error) {
	p := ps.p
	rep := &SpeculateReport{}
	var ids []int
	for id, b := range prof.ByID {
		if b.Execs >= opt.MinExecs && b.Bias() >= opt.BiasThreshold {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		fi, bi := findBranch(p, id)
		if fi < 0 {
			continue
		}
		if n := ps.speculateOne(fi, bi, prof.ByID[id], opt); n > 0 {
			rep.Speculated = append(rep.Speculated, id)
			rep.Hoisted += n
		}
	}
	if err := p.Verify(); err != nil {
		return rep, err
	}
	return rep, nil
}

// speculateOne hoists from the dominant successor of the branch ending
// block a of function fi into A, above the branch. Returns instructions
// hoisted.
func (ps *pass) speculateOne(fi, a int, prof *profile.Branch, opt SpeculateOptions) int {
	f := ps.p.Funcs[fi]
	blk := f.Blocks[a]
	term, ok := blk.Terminator()
	if !ok || term.Op != isa.BR {
		return 0
	}
	c := term.Target
	b := a + 1
	if b >= len(f.Blocks) || c >= len(f.Blocks) || c == b {
		return 0
	}
	// Dominant successor: fall-through when mostly not-taken, else target.
	var hot, cold int
	if prof.TakenRate() <= 0.5 {
		hot, cold = b, c
	} else {
		hot, cold = c, b
	}
	lv := ps.liveness(fi)
	if lv.NumPreds(hot) != 1 { // a is one of them
		return 0
	}
	for _, bi := range []int{a, hot} {
		for _, ins := range f.Blocks[bi].Instrs {
			if ins.Op == isa.CALL {
				return 0
			}
		}
	}
	temps := newTempPool(f, a, hot, cold, lv)
	sel := selectHoist(f.Blocks[hot], lv.In[cold], term.Src1, temps, opt.MaxHoist)
	if len(sel.hoisted) == 0 {
		return 0
	}
	// A := [body, hoisted, br]; hot := [movs, rest].
	body := blk.Instrs[:len(blk.Instrs)-1]
	blk.Instrs = concat(body, sel.hoisted, []isa.Instr{term})
	f.Blocks[hot].Instrs = concat(sel.movs, sel.rest, nil)
	lv.Invalidate(a, hot)
	ps.edited(fi)
	return len(sel.hoisted)
}
