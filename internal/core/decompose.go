package core

import (
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/profile"
)

// decompose rewrites the branch terminating block a of function fi. It
// returns nil and a reason when the branch is structurally ineligible.
func (ps *pass) decompose(fi, a int, cand *profile.Branch, opt Options) (*Converted, string) {
	f := ps.p.Funcs[fi]
	blk := f.Blocks[a]
	term, ok := blk.Terminator()
	if !ok || term.Op != isa.BR {
		return nil, "terminator is not a conditional branch"
	}
	b, c := a+1, term.Target
	if c <= b {
		return nil, "not a forward branch in layout order"
	}
	if b >= len(f.Blocks) || c >= len(f.Blocks) {
		return nil, "successor out of range"
	}
	// a is a predecessor of both.
	lv := ps.liveness(fi)
	if lv.NumPreds(b) != 1 {
		return nil, "fall-through successor has multiple predecessors"
	}
	if lv.NumPreds(c) != 1 {
		return nil, "taken successor has multiple predecessors"
	}
	condReg := term.Src1
	for _, bi := range []int{a, b, c} {
		for _, ins := range f.Blocks[bi].Instrs {
			if ins.Op == isa.CALL {
				// Calls clobber state our block-level liveness cannot see;
				// the paper's compiler would consult interprocedural
				// summaries here.
				return nil, "region contains a call"
			}
		}
	}

	liveB, liveC := lv.In[b], lv.In[c]

	// Condition slice push-down (optional; correctness never depends on it).
	body := blk.Instrs[:len(blk.Instrs)-1]
	var slice, rest []isa.Instr
	if opt.NoSlicePushdown {
		rest = append([]isa.Instr{}, body...)
	} else {
		slice, rest = condSlice(body, condReg)
	}

	// Shadow temporaries: registers free across the whole A/B/C region.
	temps := newTempPool(f, a, b, c, lv)

	hb := selectHoist(f.Blocks[b], liveC, condReg, temps, opt.MaxHoist)
	hc := selectHoist(f.Blocks[c], liveB, condReg, temps, opt.MaxHoist)

	// ---- build the new blocks (targets in new-index space) ----
	// New layout: [0..a-1] A BA' B' [b+1..c-1] CA' C' [c+1..] Correct-C Correct-B
	n := len(f.Blocks)
	mapIdx := func(i int) int {
		n := i
		if i > a {
			n++
		}
		if i >= c {
			n++
		}
		return n
	}
	caIdx := mapIdx(c) - 1
	bPrimeIdx, cPrimeIdx := mapIdx(b), mapIdx(c)
	corrCIdx, corrBIdx := n+2, n+3
	if mapIdx(n-1)+1 != corrCIdx {
		return nil, "internal: surgery produced wrong block count"
	}

	newA := &ir.Block{Label: blk.Label, Instrs: append(append([]isa.Instr{}, rest...),
		ir.Predict(caIdx, term.BranchID))}

	ba := &ir.Block{Label: blk.Label + ".ba", Instrs: concat(slice, hb.hoisted,
		[]isa.Instr{ir.Resolve(condReg, false, corrCIdx, term.BranchID)})}
	ca := &ir.Block{Label: blk.Label + ".ca", Instrs: concat(slice, hc.hoisted,
		[]isa.Instr{ir.Resolve(condReg, true, corrBIdx, term.BranchID)})}

	oldB, oldC := f.Blocks[b], f.Blocks[c]
	bPrime := &ir.Block{Label: oldB.Label + "'", Instrs: concat(hb.movs, hb.rest, nil)}
	cPrime := &ir.Block{Label: oldC.Label + "'", Instrs: concat(hc.movs, hc.rest, nil)}

	corrC := &ir.Block{Label: blk.Label + ".correct-c",
		Instrs: append(unspeculate(hc.hoisted), ir.Jmp(cPrimeIdx))}
	corrB := &ir.Block{Label: blk.Label + ".correct-b",
		Instrs: append(unspeculate(hb.hoisted), ir.Jmp(bPrimeIdx))}

	// ---- renumber in place and assemble ----
	// Blocks after A move up (mapIdx(i) >= i, so high to low never
	// overwrites a block not yet moved); every block that came from the
	// old function, B' and C' included, has its terminator renumbered.
	f.Blocks = append(f.Blocks, nil, nil, nil, nil)
	for i := n - 1; i > a; i-- {
		f.Blocks[mapIdx(i)] = f.Blocks[i]
	}
	f.Blocks[a], f.Blocks[a+1], f.Blocks[bPrimeIdx] = newA, ba, bPrime
	f.Blocks[caIdx], f.Blocks[cPrimeIdx] = ca, cPrime
	f.Blocks[corrCIdx], f.Blocks[corrBIdx] = corrC, corrB
	for i, nb := range f.Blocks[:corrCIdx] {
		if i != a && i != a+1 && i != caIdx {
			retarget(nb, mapIdx)
		}
	}
	lv.Remap(len(f.Blocks), mapIdx)
	lv.Invalidate(a, bPrimeIdx, cPrimeIdx)
	ps.edited(fi)

	return &Converted{
		ID:             term.BranchID,
		Bias:           cand.Bias(),
		Predictability: cand.Predictability(),
		Execs:          cand.Execs,
		SlicePushed:    len(slice),
		HoistedB:       len(hb.hoisted),
		HoistedC:       len(hc.hoisted),
		BlockBSize:     len(oldB.Instrs),
		BlockCSize:     len(oldC.Instrs),
		Temps:          hb.temps + hc.temps,
	}, ""
}

// condSlice splits the block body into the backward slice of cond (to be
// pushed into both resolution blocks) and the remaining instructions, in
// their original relative orders. When the push-down is not provably legal
// the slice is left in place (empty slice returned) — the transformation
// still applies, only the overlap opportunity shrinks.
func condSlice(body []isa.Instr, cond isa.Reg) (slice, rest []isa.Instr) {
	inSlice := make([]bool, len(body))
	var needed ir.RegSet
	needed.Add(cond)
	for i := len(body) - 1; i >= 0; i-- {
		d := body[i].Def()
		if d != isa.NoReg && needed.Has(d) {
			inSlice[i] = true
			needed.Remove(d)
			u1, u2, u3 := body[i].Uses()
			needed.Add(u1)
			needed.Add(u2)
			needed.Add(u3)
		}
	}
	// Legality: every slice instruction moves below every later non-slice
	// instruction; check RAW/WAW/WAR pairs. Loads moving past stores are
	// permitted (the DBT substrate's data-speculation support); the slice
	// never contains stores.
	for i := range body {
		if !inSlice[i] {
			continue
		}
		sd := body[i].Def()
		su1, su2, su3 := body[i].Uses()
		for j := i + 1; j < len(body); j++ {
			if inSlice[j] {
				continue
			}
			ru1, ru2, ru3 := body[j].Uses()
			rd := body[j].Def()
			if sd != isa.NoReg && (ru1 == sd || ru2 == sd || ru3 == sd || rd == sd) {
				return nil, append([]isa.Instr{}, body...) // RAW or WAW
			}
			if rd != isa.NoReg && (rd == su1 || rd == su2 || rd == su3) {
				return nil, append([]isa.Instr{}, body...) // WAR
			}
			if body[i].IsLoad() && body[j].IsStore() {
				// Without alias analysis a slice load may not sink past a
				// later store.
				return nil, append([]isa.Instr{}, body...)
			}
		}
	}
	for i, ins := range body {
		if inSlice[i] {
			slice = append(slice, ins)
		} else {
			rest = append(rest, ins)
		}
	}
	return slice, rest
}

// tempPool hands out architectural registers that are provably dead across
// the A/B/C region, for shadow renaming.
type tempPool struct {
	free []isa.Reg
}

func newTempPool(f *ir.Func, a, b, c int, lv *ir.Liveness) *tempPool {
	var busy ir.RegSet
	for _, bi := range []int{a, b, c} {
		busy = busy.Union(lv.In[bi]).Union(lv.Out[bi])
		for _, ins := range f.Blocks[bi].Instrs {
			busy.Add(ins.Def())
			u1, u2, u3 := ins.Uses()
			busy.Add(u1)
			busy.Add(u2)
			busy.Add(u3)
		}
	}
	busy.Add(isa.R(isa.NumIntRegs - 1)) // link register
	p := &tempPool{}
	for r := isa.NumIntRegs - 2; r >= 0; r-- {
		if !busy.Has(isa.R(r)) {
			p.free = append(p.free, isa.R(r))
		}
	}
	for r := isa.NumFPRegs - 1; r >= 0; r-- {
		if !busy.Has(isa.F(r)) {
			p.free = append(p.free, isa.F(r))
		}
	}
	return p
}

// take returns a free temp of the right class (int/fp), or NoReg.
func (p *tempPool) take(like isa.Reg) isa.Reg {
	for i, r := range p.free {
		if r.IsFP() == like.IsFP() {
			p.free = append(p.free[:i], p.free[i+1:]...)
			return r
		}
	}
	return isa.NoReg
}

// hoistSel is the outcome of hoist selection on one successor block.
type hoistSel struct {
	hoisted []isa.Instr // renamed, loads speculated; executed in the A' block
	movs    []isa.Instr // temp -> architected commits at the top of X'
	rest    []isa.Instr // what remains in X' (terminator included)
	temps   int
}

// selectHoist picks a dependence-closed prefix of blk to run above the
// resolution point. otherLive is the live-in set of the alternate path: a
// hoisted definition clobbering it must be renamed to a shadow temporary
// (or abandoned when none is free).
func selectHoist(blk *ir.Block, otherLive ir.RegSet, condReg isa.Reg, temps *tempPool, maxHoist int) hoistSel {
	var sel hoistSel
	var skippedDefs, skippedUses ir.RegSet
	renames := map[isa.Reg]isa.Reg{}
	storeSeen := false

	skip := func(ins isa.Instr) {
		skippedDefs.Add(ins.Def())
		u1, u2, u3 := ins.Uses()
		skippedUses.Add(u1)
		skippedUses.Add(u2)
		skippedUses.Add(u3)
		sel.rest = append(sel.rest, ins)
	}
	renamed := func(r isa.Reg) isa.Reg {
		if t, ok := renames[r]; ok {
			return t
		}
		return r
	}

	for idx, ins := range blk.Instrs {
		if ins.IsTerminator() || idx == len(blk.Instrs)-1 && ins.IsControl() {
			sel.rest = append(sel.rest, ins)
			continue
		}
		if ins.IsStore() || ins.IsControl() {
			storeSeen = storeSeen || ins.IsStore()
			skip(ins)
			continue
		}
		if len(sel.hoisted) >= maxHoist {
			skip(ins)
			continue
		}
		u1, u2, u3 := ins.Uses()
		d := ins.Def()
		if skippedDefs.Has(u1) || skippedDefs.Has(u2) || skippedDefs.Has(u3) { // RAW on a skipped def
			skip(ins)
			continue
		}
		if d == isa.NoReg || d == condReg || skippedDefs.Has(d) || skippedUses.Has(d) {
			skip(ins)
			continue
		}
		if ins.IsLoad() && storeSeen { // no load/store reordering without analysis
			skip(ins)
			continue
		}
		h := ins
		h.Src1, h.Src2 = renamed(h.Src1), renamed(h.Src2)
		if h.Op == isa.LD {
			h.Op = isa.LDS // control speculation: suppress faults
		}
		if otherLive.Has(d) {
			// Renaming costs a commit mov below the resolve; only loads
			// (whose latency the hoist hides) are worth it.
			if !ins.IsLoad() {
				skip(ins)
				continue
			}
			t := temps.take(d)
			if t == isa.NoReg {
				skip(ins)
				continue
			}
			renames[d] = t
			h.Dst = t
			mv := isa.MOV
			if d.IsFP() {
				mv = isa.FMOV
			}
			sel.movs = append(sel.movs, isa.Instr{Op: mv, Dst: d, Src1: t, Target: -1})
			sel.temps++
		} else if t, ok := renames[d]; ok {
			// The register was renamed earlier; keep writing the temp so
			// the pending mov commits the latest value.
			h.Dst = t
		}
		sel.hoisted = append(sel.hoisted, h)
	}
	return sel
}

// unspeculate converts a hoisted group back to its non-speculative form
// for a correction block (the correction path is architecturally correct,
// so its loads must fault like the original program's).
func unspeculate(hoisted []isa.Instr) []isa.Instr {
	out := make([]isa.Instr, len(hoisted))
	for i, ins := range hoisted {
		if ins.Op == isa.LDS {
			ins.Op = isa.LD
		}
		out[i] = ins
	}
	return out
}

func concat(a, b, c []isa.Instr) []isa.Instr {
	out := make([]isa.Instr, 0, len(a)+len(b)+len(c))
	out = append(out, a...)
	out = append(out, b...)
	out = append(out, c...)
	return out
}
