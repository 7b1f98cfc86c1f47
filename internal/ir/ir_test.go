package ir

import (
	"strings"
	"testing"

	"vanguard/internal/isa"
)

// diamond builds the canonical hammock used throughout the paper:
//
//	A: cmp; br -> C
//	B: ... (fallthrough from A)
//	C: ...
//	D: join, halt
func diamond() *Func {
	f := &Func{Name: "diamond"}
	a := f.AddBlock("A")
	b := f.AddBlock("B")
	c := f.AddBlock("C")
	d := f.AddBlock("D")
	f.Emit(a, Li(isa.R(1), 5), Cmp(isa.CMPLT, isa.R(2), isa.R(1), isa.R(0)), BrID(isa.R(2), c, 1))
	f.Emit(b, Addi(isa.R(3), isa.R(3), 1), Jmp(d))
	f.Emit(c, Addi(isa.R(4), isa.R(4), 1)) // falls through to D
	f.Emit(d, Halt())
	return f
}

func TestSuccsPreds(t *testing.T) {
	f := diamond()
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, want := range wantSuccs {
		s, n := f.Succs(i)
		got := s[:n]
		if len(got) != len(want) {
			t.Fatalf("Succs(%d) = %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("Succs(%d) = %v, want %v", i, got, want)
			}
		}
	}
	if n := f.NumPreds(3); n != 2 {
		t.Errorf("join block should have 2 preds, got %d", n)
	}
	if n := f.NumPreds(0); n != 0 {
		t.Errorf("entry should have no preds, got %d", n)
	}
}

func TestSuccsOfDecomposedOps(t *testing.T) {
	f := &Func{Name: "g"}
	a := f.AddBlock("A")
	ba := f.AddBlock("BA'")
	bp := f.AddBlock("B'")
	corr := f.AddBlock("CorrC")
	f.Emit(a, Predict(corr, 1))
	f.Emit(ba, Resolve(isa.R(1), false, corr, 1))
	f.Emit(bp, Halt())
	f.Emit(corr, Halt())

	if s, n := f.Succs(a); n != 2 || s[0] != corr || s[1] != ba {
		t.Errorf("PREDICT successors = %v, want [%d %d]", s[:n], corr, ba)
	}
	if s, n := f.Succs(ba); n != 2 || s[0] != corr || s[1] != bp {
		t.Errorf("RESOLVE successors = %v, want [%d %d]", s[:n], corr, bp)
	}
}

// TestReversePostorder pins the depth-first order Liveness iterates in:
// the entry first, every block after its forward predecessors.
func TestReversePostorder(t *testing.T) {
	f := diamond()
	var sc rpoScratch
	order := sc.order(len(f.Blocks), f.Succs)
	if len(order) != 4 || order[0] != 0 {
		t.Fatalf("RPO = %v; must start at entry and cover all blocks", order)
	}
	pos := make([]int, 4)
	for i, b := range order {
		pos[b] = i
	}
	// Join must come after both arms; arms after entry.
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Errorf("RPO %v does not topologically order the diamond", order)
	}
}

func TestReversePostorderUnreachable(t *testing.T) {
	f := &Func{Name: "u"}
	a := f.AddBlock("A")
	f.AddBlock("dead")
	end := f.AddBlock("end")
	f.Emit(a, Jmp(end))
	f.Emit(1, Halt())
	f.Emit(end, Halt())
	var sc rpoScratch
	order := sc.order(len(f.Blocks), f.Succs)
	if len(order) != 3 || order[0] != a || order[1] != end || order[2] != 1 {
		t.Fatalf("RPO = %v, want the reachable blocks [0 2] then the unreachable one, 1", order)
	}
}

func TestVerifyCatchesBadPrograms(t *testing.T) {
	mk := func(mut func(*Func)) *Program {
		f := diamond()
		mut(f)
		return &Program{Funcs: []*Func{f}}
	}
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{"empty program", &Program{}, "no functions"},
		{"empty func", &Program{Funcs: []*Func{{Name: "e"}}}, "no blocks"},
		{"mid-block terminator", mk(func(f *Func) {
			f.Blocks[1].Instrs = []isa.Instr{Jmp(3), Nop()}
		}), "not at block end"},
		{"branch target out of range", mk(func(f *Func) {
			f.Blocks[0].Instrs[2].Target = 99
		}), "out of range"},
		{"fall off end", mk(func(f *Func) {
			f.Blocks[3].Instrs = []isa.Instr{Nop()}
		}), "falls off the end"},
		{"call target out of range", mk(func(f *Func) {
			f.Blocks[1].Instrs = []isa.Instr{Call(7), Jmp(3)}
		}), "call target"},
	}
	for _, c := range cases {
		err := c.p.Verify()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify() = %v, want error containing %q", c.name, err, c.want)
		}
	}
	good := &Program{Funcs: []*Func{diamond()}}
	if err := good.Verify(); err != nil {
		t.Errorf("good program failed verification: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Program{Funcs: []*Func{diamond()}}
	c := p.Clone()
	c.Funcs[0].Blocks[0].Instrs[0].Imm = 999
	c.Funcs[0].Blocks[0].Label = "mutated"
	if p.Funcs[0].Blocks[0].Instrs[0].Imm == 999 || p.Funcs[0].Blocks[0].Label == "mutated" {
		t.Error("Clone aliases the original")
	}
	if p.NumInstrs() != c.NumInstrs() {
		t.Error("clone lost instructions")
	}
}

func TestLivenessDiamond(t *testing.T) {
	// A: r2 = cmp(r1, r0); br r2 -> C
	// B: r5 = r3 + 1
	// C: r5 = r4 + 1
	// D: st [r6] = r5; halt
	f := &Func{Name: "live"}
	a := f.AddBlock("A")
	b := f.AddBlock("B")
	c := f.AddBlock("C")
	d := f.AddBlock("D")
	f.Emit(a, Cmp(isa.CMPLT, isa.R(2), isa.R(1), isa.R(0)), Br(isa.R(2), c))
	f.Emit(b, Addi(isa.R(5), isa.R(3), 1), Jmp(d))
	f.Emit(c, Addi(isa.R(5), isa.R(4), 1))
	f.Emit(d, St(isa.R(6), 0, isa.R(5)), Halt())

	lv := ComputeLiveness(f)
	for _, r := range []isa.Reg{isa.R(0), isa.R(1), isa.R(3), isa.R(4), isa.R(6)} {
		if !lv.In[a].Has(r) {
			t.Errorf("%v must be live-in at A; got %v", r, lv.In[a])
		}
	}
	if lv.In[a].Has(isa.R(5)) {
		t.Errorf("r5 is defined on all paths before use; must not be live-in at A: %v", lv.In[a])
	}
	if !lv.In[b].Has(isa.R(3)) || lv.In[b].Has(isa.R(4)) {
		t.Errorf("B live-in wrong: %v", lv.In[b])
	}
	if !lv.In[c].Has(isa.R(4)) || lv.In[c].Has(isa.R(3)) {
		t.Errorf("C live-in wrong: %v", lv.In[c])
	}
	if !lv.Out[b].Has(isa.R(5)) || !lv.Out[c].Has(isa.R(5)) {
		t.Error("r5 must be live-out of both arms")
	}
	if !lv.In[d].Has(isa.R(5)) || !lv.In[d].Has(isa.R(6)) {
		t.Errorf("D live-in wrong: %v", lv.In[d])
	}
}

func TestLivenessLoop(t *testing.T) {
	// L: r1 = r1 + 1; r2 = cmplt(r1, r9); br r2 -> L ; E: halt
	f := &Func{Name: "loop"}
	l := f.AddBlock("L")
	e := f.AddBlock("E")
	f.Emit(l, Addi(isa.R(1), isa.R(1), 1), Cmp(isa.CMPLT, isa.R(2), isa.R(1), isa.R(9)), Br(isa.R(2), l))
	f.Emit(e, Halt())
	lv := ComputeLiveness(f)
	if !lv.In[0].Has(isa.R(1)) || !lv.In[0].Has(isa.R(9)) {
		t.Errorf("loop live-in must include r1 and r9: %v", lv.In[0])
	}
	if !lv.Out[0].Has(isa.R(1)) {
		t.Errorf("r1 must be live around the back edge: %v", lv.Out[0])
	}
}

// sameLiveness fails the test unless lv matches a from-scratch
// ComputeLiveness of f.
func sameLiveness(t *testing.T, what string, f *Func, lv *Liveness) {
	t.Helper()
	want := ComputeLiveness(f)
	if len(lv.In) != len(f.Blocks) || len(lv.Out) != len(f.Blocks) {
		t.Fatalf("%s: liveness covers %d/%d blocks, func has %d", what, len(lv.In), len(lv.Out), len(f.Blocks))
	}
	for i := range f.Blocks {
		if lv.In[i] != want.In[i] || lv.Out[i] != want.Out[i] {
			t.Errorf("%s: block %d in %v out %v, recomputed in %v out %v",
				what, i, lv.In[i], lv.Out[i], want.In[i], want.Out[i])
		}
	}
}

func TestLivenessSingleBlock(t *testing.T) {
	// No block has a successor, so the order is all the fixpoint has.
	f := &Func{Name: "one"}
	a := f.AddBlock("A")
	f.Emit(a, St(isa.R(1), 0, isa.R(2)), Halt())
	lv := ComputeLiveness(f)
	if !lv.In[a].Has(isa.R(1)) || !lv.In[a].Has(isa.R(2)) {
		t.Errorf("the store's operands must be live into A: %v", lv.In[a])
	}
}

func TestLivenessMaintained(t *testing.T) {
	f := diamond()
	lv := ComputeLiveness(f)

	// Rewrite a block in place: B now reads r7 instead of r3.
	f.Blocks[1].Instrs[0] = Addi(isa.R(3), isa.R(7), 1)
	lv.Invalidate(1)
	lv.Update(f)
	sameLiveness(t, "rewrite", f, lv)
	if !lv.In[0].Has(isa.R(7)) {
		t.Errorf("r7 must be live into A after B reads it: %v", lv.In[0])
	}

	// Insert a block between A and B that reads r8 and falls through to
	// B: blocks after A move up by one, and so do the targets naming them.
	to := func(i int) int {
		if i > 0 {
			return i + 1
		}
		return i
	}
	f.Blocks = append(f.Blocks[:1], append([]*Block{{Label: "new", Instrs: []isa.Instr{Addi(isa.R(9), isa.R(8), 1)}}}, f.Blocks[1:]...)...)
	for _, b := range f.Blocks {
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() && b.Instrs[n-1].Op != isa.HALT {
			b.Instrs[n-1].Target = to(b.Instrs[n-1].Target)
		}
	}
	lv.Remap(len(f.Blocks), to)
	lv.Update(f)
	sameLiveness(t, "insert", f, lv)
	if !lv.In[0].Has(isa.R(8)) {
		t.Errorf("r8 must be live into A through the inserted block: %v", lv.In[0])
	}

	// Delete the inserted block again.
	back := func(i int) int {
		switch {
		case i == 1:
			return -1
		case i > 1:
			return i - 1
		}
		return i
	}
	f.Blocks = append(f.Blocks[:1], f.Blocks[2:]...)
	for _, b := range f.Blocks {
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() && b.Instrs[n-1].Op != isa.HALT {
			b.Instrs[n-1].Target = back(b.Instrs[n-1].Target)
		}
	}
	lv.Remap(len(f.Blocks), back)
	lv.Update(f)
	sameLiveness(t, "delete", f, lv)
	if lv.In[0].Has(isa.R(8)) {
		t.Errorf("r8 must not be live once the block reading it is gone: %v", lv.In[0])
	}

	// A block-count change without Remap is an editing bug, not a
	// silently stale answer.
	f.AddBlock("unmapped")
	defer func() {
		if recover() == nil {
			t.Error("Update after an unrecorded block insertion must panic")
		}
	}()
	lv.Update(f)
}

func TestLinearize(t *testing.T) {
	p := &Program{Funcs: []*Func{diamond()}}
	im, err := Linearize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Instrs) != p.NumInstrs() {
		t.Fatalf("image has %d instrs, program has %d", len(im.Instrs), p.NumInstrs())
	}
	if im.Entry != 0 {
		t.Errorf("entry PC = %d, want 0", im.Entry)
	}
	// The A-block branch must now target block C's start PC.
	br := im.Instrs[2]
	if br.Op != isa.BR || br.Target != im.BlockPCs[0][2] {
		t.Errorf("branch target not resolved: %v (C at %d)", br, im.BlockPCs[0][2])
	}
	if im.PCAddr(1) != CodeBase+uint64(isa.InstrBytes) {
		t.Error("PCAddr wrong")
	}
}

func TestLinearizeCallTargets(t *testing.T) {
	callee := &Func{Name: "callee"}
	cb := callee.AddBlock("entry")
	callee.Emit(cb, Addi(isa.R(1), isa.R(1), 1), Ret())

	caller := &Func{Name: "main"}
	m0 := caller.AddBlock("m0")
	m1 := caller.AddBlock("m1")
	caller.Emit(m0, Call(1))
	caller.Emit(m1, Halt())

	p := &Program{Funcs: []*Func{caller, callee}}
	im := MustLinearize(p)
	if im.Instrs[0].Op != isa.CALL || im.Instrs[0].Target != im.FuncEntries[1] {
		t.Errorf("call not resolved to callee entry: %v, entries %v", im.Instrs[0], im.FuncEntries)
	}
	_ = m1
}

func TestMustLinearizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLinearize should panic on invalid program")
		}
	}()
	MustLinearize(&Program{})
}

func TestFuncString(t *testing.T) {
	s := diamond().String()
	for _, want := range []string{"func diamond", "A (block 0)", "br r2, @2", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}
