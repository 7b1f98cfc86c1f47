package core

import (
	"sort"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/profile"
)

// IfConvert implements the remaining Figure 1 quadrant: classic
// predication for UNBIASED, UNPREDICTABLE hammocks. Both arms are
// flattened into the branch block, arm definitions are renamed to
// temporaries (arm loads become non-faulting), and conditional moves
// select the surviving values — converting the control dependence into a
// data dependence and eliminating the misprediction cost entirely.
//
// It is prior art (Allen et al., POPL '83), included both for completeness
// of the taxonomy and for the predication-vs-decomposition ablation.
type IfConvertOptions struct {
	// MaxPredictability: only branches the predictor does WORSE than this
	// on are worth predicating (predictable ones are better left to the
	// predictor or the decomposition).
	MaxPredictability float64
	// MinExecs filters cold branches.
	MinExecs int64
	// MaxArm bounds each arm's instruction count (predication executes
	// both arms always, so big arms cost more than the mispredicts saved).
	MaxArm int
}

// DefaultIfConvertOptions mirror common if-conversion practice.
func DefaultIfConvertOptions() IfConvertOptions {
	return IfConvertOptions{MaxPredictability: 0.80, MinExecs: 64, MaxArm: 10}
}

// IfConvertReport summarizes the pass.
type IfConvertReport struct {
	Converted []int          // branch IDs predicated
	Skipped   map[int]string // branch ID -> reason
}

// IfConvertBranches predicates every profitable unpredictable hammock.
func IfConvertBranches(p *ir.Program, prof *profile.Profile, opt IfConvertOptions) (*IfConvertReport, error) {
	return newPass(p).ifConvert(prof, opt)
}

func (ps *pass) ifConvert(prof *profile.Profile, opt IfConvertOptions) (*IfConvertReport, error) {
	p := ps.p
	rep := &IfConvertReport{Skipped: make(map[int]string)}
	var ids []int
	for id, b := range prof.ByID {
		if !b.Forward || b.Execs < opt.MinExecs {
			continue
		}
		if b.Predictability() > opt.MaxPredictability {
			rep.Skipped[id] = "predictable enough for the branch predictor"
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fi, bi := findBranch(p, id)
		if fi < 0 {
			rep.Skipped[id] = "branch not found in IR"
			continue
		}
		if reason := ps.ifConvertOne(fi, bi, opt); reason != "" {
			rep.Skipped[id] = reason
			continue
		}
		rep.Converted = append(rep.Converted, id)
	}
	if err := p.Verify(); err != nil {
		return rep, err
	}
	return rep, nil
}

// ifConvertOne flattens the hammock at block a of function fi. The
// required shape is the layout the generators (and most compilers)
// produce:
//
//	a:   [body] br cond -> c
//	b:   [arm] jmp j        (b = a+1)
//	c:   [arm]              (c = b+1, falls through to j = c+1)
//
// Returns "" on success or a skip reason.
func (ps *pass) ifConvertOne(fi, a int, opt IfConvertOptions) string {
	f := ps.p.Funcs[fi]
	blk := f.Blocks[a]
	term, ok := blk.Terminator()
	if !ok || term.Op != isa.BR {
		return "terminator is not a conditional branch"
	}
	b, c := a+1, term.Target
	if c != b+1 {
		return "taken successor does not immediately follow the fall-through arm"
	}
	if c+1 >= len(f.Blocks) {
		return "no join block"
	}
	if f.NumPreds(b) != 1 || f.NumPreds(c) != 1 {
		return "arm has multiple predecessors"
	}
	bTerm, ok := f.Blocks[b].Terminator()
	if !ok || bTerm.Op != isa.JMP || bTerm.Target != c+1 {
		return "fall-through arm does not jump to the join"
	}
	if t, ok := f.Blocks[c].Terminator(); ok {
		_ = t
		return "taken arm must fall through to the join"
	}
	armB := f.Blocks[b].Instrs[:len(f.Blocks[b].Instrs)-1]
	armC := f.Blocks[c].Instrs
	if len(armB) > opt.MaxArm || len(armC) > opt.MaxArm {
		return "arm too large to predicate profitably"
	}
	for _, arm := range [][]isa.Instr{armB, armC} {
		for _, ins := range arm {
			if ins.IsStore() || ins.IsControl() || ins.Op == isa.CMOV {
				return "arm contains a store, control flow, or cmov"
			}
		}
	}
	cond := term.Src1

	lv := ps.liveness(fi)
	liveJoin := lv.In[c+1]
	temps := newTempPool(f, a, b, c, lv)

	// Rename every arm definition to a fresh temporary; loads become
	// non-faulting since both arms now execute unconditionally.
	flatten := func(arm []isa.Instr) (code []isa.Instr, renames map[isa.Reg]isa.Reg, order []isa.Reg, fail string) {
		renames = map[isa.Reg]isa.Reg{}
		look := func(r isa.Reg) isa.Reg {
			if t, ok := renames[r]; ok {
				return t
			}
			return r
		}
		for _, ins := range arm {
			h := ins
			h.Src1, h.Src2 = look(h.Src1), look(h.Src2)
			if h.Op == isa.LD {
				h.Op = isa.LDS
			}
			d := ins.Def()
			if d == isa.NoReg {
				code = append(code, h)
				continue
			}
			if _, seen := renames[d]; !seen {
				t := temps.take(d)
				if t == isa.NoReg {
					return nil, nil, nil, "out of shadow temporaries"
				}
				renames[d] = t
				order = append(order, d)
			}
			h.Dst = renames[d]
			code = append(code, h)
		}
		return code, renames, order, ""
	}
	codeB, renB, orderB, fail := flatten(armB)
	if fail != "" {
		return fail
	}
	codeC, renC, orderC, fail := flatten(armC)
	if fail != "" {
		return fail
	}

	// Selects: for each register defined by either arm and live into the
	// join, merge with conditional moves (cond true selects the taken
	// arm C, matching branch semantics).
	var selects []isa.Instr
	mov := func(d, s isa.Reg) isa.Instr {
		op := isa.MOV
		if d.IsFP() {
			op = isa.FMOV
		}
		return isa.Instr{Op: op, Dst: d, Src1: s, Target: -1}
	}
	handled := map[isa.Reg]bool{}
	for _, d := range append(append([]isa.Reg{}, orderB...), orderC...) {
		if handled[d] || !liveJoin.Has(d) {
			handled[d] = true
			continue
		}
		handled[d] = true
		tb, inB := renB[d]
		tc, inC := renC[d]
		switch {
		case inB && inC:
			selects = append(selects,
				mov(d, tb),
				isa.Instr{Op: isa.CMOV, Dst: d, Src1: cond, Src2: tc, Target: -1})
		case inC:
			// d keeps its old value on the B path.
			selects = append(selects,
				isa.Instr{Op: isa.CMOV, Dst: d, Src1: cond, Src2: tc, Target: -1})
		default: // inB only: select tb when cond is FALSE -> invert.
			ncond := temps.take(cond)
			if ncond == isa.NoReg {
				return "out of shadow temporaries"
			}
			zero := temps.take(cond)
			if zero == isa.NoReg {
				return "out of shadow temporaries"
			}
			selects = append(selects,
				isa.Instr{Op: isa.LI, Dst: zero, Imm: 0, Target: -1},
				isa.Instr{Op: isa.CMPEQ, Dst: ncond, Src1: cond, Src2: zero, Target: -1},
				isa.Instr{Op: isa.CMOV, Dst: d, Src1: ncond, Src2: tb, Target: -1})
		}
	}

	// Rebuild: a = [body, codeB, codeC, selects], arms removed, every
	// target above them shifted down by two.
	body := blk.Instrs[:len(blk.Instrs)-1]
	merged := &ir.Block{Label: blk.Label + ".pred",
		Instrs: concat(body, append(append([]isa.Instr{}, codeB...), codeC...), selects)}

	mapIdx := func(i int) int {
		if i > c {
			return i - 2
		}
		return i
	}
	n := len(f.Blocks)
	f.Blocks[a] = merged
	copy(f.Blocks[b:], f.Blocks[c+1:])
	clear(f.Blocks[n-2:])
	f.Blocks = f.Blocks[:n-2]
	for i, nb := range f.Blocks {
		if i != a {
			retarget(nb, mapIdx)
		}
	}
	lv.Remap(len(f.Blocks), func(i int) int {
		if i == b || i == c {
			return -1
		}
		return mapIdx(i)
	})
	lv.Invalidate(a)
	ps.edited(fi)
	return ""
}
