package core

import (
	"math/rand"
	"strings"
	"testing"

	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
)

const dataBase = int64(mem.FaultBoundary)

// hammock builds the canonical candidate:
//
//	init: r1=base, r2..r5 seeded
//	A:    r6 = ld [r1+0]; r7 = cmplt(r6, r2); br r7 -> C
//	B:    r8 = ld [r1+8]; r9 = r8+r3; st [r1+64] = r9; jmp D
//	C:    r8 = ld [r1+16]; r9 = r8*r4; st [r1+72] = r9   (fall to D)
//	D:    st [r1+80] = r9; halt
func hammock() *ir.Program {
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	a := f.AddBlock("A")
	b := f.AddBlock("B")
	c := f.AddBlock("C")
	d := f.AddBlock("D")
	f.Emit(init,
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(2), 50),
		ir.Li(isa.R(3), 7),
		ir.Li(isa.R(4), 3),
	)
	f.Emit(a,
		ir.Ld(isa.R(6), isa.R(1), 0),
		ir.Cmp(isa.CMPLT, isa.R(7), isa.R(6), isa.R(2)),
		ir.BrID(isa.R(7), c, 1),
	)
	f.Emit(b,
		ir.Ld(isa.R(8), isa.R(1), 8),
		ir.Add(isa.R(9), isa.R(8), isa.R(3)),
		ir.St(isa.R(1), 64, isa.R(9)),
		ir.Jmp(d),
	)
	f.Emit(c,
		ir.Ld(isa.R(8), isa.R(1), 16),
		ir.Mul(isa.R(9), isa.R(8), isa.R(4)),
		ir.St(isa.R(1), 72, isa.R(9)),
	)
	f.Emit(d, ir.St(isa.R(1), 80, isa.R(9)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

// fakeProfile marks branch `id` as hot, unbiased, and predictable.
func fakeProfile(id int) *profile.Profile {
	return &profile.Profile{ByID: map[int]*profile.Branch{
		id: {ID: id, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
	}}
}

func TestTransformStructure(t *testing.T) {
	p := hammock()
	before := len(p.Funcs[0].Blocks)
	rep, err := Transform(p, fakeProfile(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 1 {
		t.Fatalf("converted %d branches, want 1 (skipped: %v)", len(rep.Converted), rep.Skipped)
	}
	if got := len(p.Funcs[0].Blocks); got != before+4 {
		t.Errorf("block count %d, want %d", got, before+4)
	}
	var predicts, resolves int
	for _, blk := range p.Funcs[0].Blocks {
		for _, ins := range blk.Instrs {
			switch ins.Op {
			case isa.PREDICT:
				predicts++
			case isa.RESOLVE:
				resolves++
			case isa.BR:
				if ins.BranchID == 1 {
					t.Error("original branch survived the transformation")
				}
			}
		}
	}
	if predicts != 1 || resolves != 2 {
		t.Errorf("predicts=%d resolves=%d, want 1 and 2 (one per predicted path)", predicts, resolves)
	}
	conv := rep.Converted[0]
	if conv.SlicePushed == 0 {
		t.Error("the load+cmp condition slice should have been pushed down")
	}
	if conv.HoistedB == 0 || conv.HoistedC == 0 {
		t.Errorf("expected hoisting from both successors: B=%d C=%d", conv.HoistedB, conv.HoistedC)
	}
	if rep.StaticAfter <= rep.StaticBefore {
		t.Error("transformation must grow static code size")
	}
	if rep.PISCS() <= 0 || rep.PBC() != 100 {
		t.Errorf("PISCS=%.1f PBC=%.1f", rep.PISCS(), rep.PBC())
	}
	// Hoisted loads must be speculative in the A' blocks.
	foundLDS := false
	for _, blk := range p.Funcs[0].Blocks {
		if strings.HasSuffix(blk.Label, ".ba") || strings.HasSuffix(blk.Label, ".ca") {
			for _, ins := range blk.Instrs {
				if ins.Op == isa.LDS {
					foundLDS = true
				}
				if ins.Op == isa.LD && blk.Instrs[len(blk.Instrs)-1].Op == isa.RESOLVE {
					// Slice loads stay non-speculative: they executed
					// unconditionally in the original program. Only check
					// that hoisted successor loads got converted; the
					// slice load here targets [r1+0].
					if ins.Imm != 0 {
						t.Errorf("hoisted load %v not converted to LDS", ins)
					}
				}
			}
		}
	}
	if !foundLDS {
		t.Error("no speculative loads found in resolution blocks")
	}
}

// fixedOracles are the PREDICT oracles every equivalence check runs.
func fixedOracles() map[string]func(pc, id int) bool {
	k := 0
	return map[string]func(pc, id int) bool{
		"not-taken": func(pc, id int) bool { return false },
		"taken":     func(pc, id int) bool { return true },
		"alternate": func(pc, id int) bool { k++; return k%2 == 0 },
	}
}

// checkEquivalence checks original vs transformed program results under
// the given PREDICT oracles, and through the timing simulator.
func checkEquivalence(t *testing.T, orig *ir.Program, init func(*mem.Memory), oracles map[string]func(pc, id int) bool) {
	t.Helper()
	trans := orig.Clone()
	rep, err := Transform(trans, fakeProfile(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 1 {
		t.Fatalf("not converted: %v", rep.Skipped)
	}
	oim := ir.MustLinearize(orig)
	tim := ir.MustLinearize(trans)

	gm := mem.New()
	init(gm)
	if _, _, err := interp.Run(oim, gm, interp.Options{}); err != nil {
		t.Fatalf("original program: %v", err)
	}

	for name, oracle := range oracles {
		tm := mem.New()
		init(tm)
		if _, _, err := interp.Run(tim, tm, interp.Options{PredictOracle: oracle}); err != nil {
			t.Fatalf("transformed under %s oracle: %v\n%s", name, err, trans)
		}
		if !tm.Equal(gm) {
			t.Errorf("memory mismatch under %s oracle\ntransformed:\n%s", name, trans)
		}
	}

	// And through the timing simulator (real predictor, flushes, DBB).
	pm := mem.New()
	init(pm)
	mach := pipeline.New(tim, pm, pipeline.DefaultConfig(4))
	if _, err := mach.Run(); err != nil {
		t.Fatalf("pipeline on transformed program: %v", err)
	}
	if !pm.Equal(gm) {
		t.Error("pipeline-executed transformed program diverged from golden model")
	}
}

// dataInit stores the condition word and two data words the hammock
// and renamedHoist programs load.
func dataInit(cond, w8, w16 int64) func(*mem.Memory) {
	return func(m *mem.Memory) {
		m.MustStore(uint64(dataBase), cond)
		m.MustStore(uint64(dataBase)+8, w8)
		m.MustStore(uint64(dataBase)+16, w16)
	}
}

func TestTransformPreservesSemantics(t *testing.T) {
	for _, cond := range []int64{10, 90} { // taken and not-taken directions
		checkEquivalence(t, hammock(), dataInit(cond, 111, 222), fixedOracles())
	}
}

// FuzzTransformPreservesSemantics: the hammock and the renamed-hoist
// case, over fuzzed condition and data words, must end in the original
// program's memory under a fuzzed PREDICT oracle (bit k of the pattern
// steers the k-th PREDICT, mod 64) as well as under the fixed ones, and
// through the timing simulator.
func FuzzTransformPreservesSemantics(f *testing.F) {
	f.Add(false, int64(10), int64(111), int64(222), uint64(0))
	f.Add(false, int64(90), int64(111), int64(222), ^uint64(0))
	f.Add(true, int64(10), int64(333), int64(0), uint64(0b1010))
	f.Add(true, int64(90), int64(-1), int64(7), uint64(0b0110))
	f.Fuzz(func(t *testing.T, renamed bool, cond, w8, w16 int64, oracleBits uint64) {
		p := hammock()
		if renamed {
			p = renamedHoist()
		}
		k := 0
		oracles := fixedOracles()
		oracles["fuzzed"] = func(pc, id int) bool {
			taken := oracleBits>>(k%64)&1 == 1
			k++
			return taken
		}
		checkEquivalence(t, p, dataInit(cond, w8, w16), oracles)
	})
}

// renamedHoist is a hammock whose B defines, first thing, a register
// that is live into C, so hoisting B's head needs a shadow temporary.
func renamedHoist() *ir.Program {
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	a := f.AddBlock("A")
	b := f.AddBlock("B")
	c := f.AddBlock("C")
	d := f.AddBlock("D")
	f.Emit(init,
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(2), 50),
		ir.Li(isa.R(10), 1000), // live into C, clobbered early in B
	)
	f.Emit(a,
		ir.Ld(isa.R(6), isa.R(1), 0),
		ir.Cmp(isa.CMPLT, isa.R(7), isa.R(6), isa.R(2)),
		ir.BrID(isa.R(7), c, 1),
	)
	f.Emit(b,
		ir.Ld(isa.R(10), isa.R(1), 8), // defines r10, which C reads
		ir.Addi(isa.R(11), isa.R(10), 5),
		ir.St(isa.R(1), 64, isa.R(11)),
		ir.Jmp(d),
	)
	f.Emit(c,
		ir.Addi(isa.R(11), isa.R(10), 7), // reads the pre-branch r10
		ir.St(isa.R(1), 72, isa.R(11)),
	)
	f.Emit(d, ir.St(isa.R(1), 80, isa.R(11)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

// TestRenamedHoistPreservesSemantics forces the shadow-temporary path: B's
// first instruction defines a register that is live into C.
func TestRenamedHoistPreservesSemantics(t *testing.T) {
	p := renamedHoist()

	// Verify the transform actually used a temp.
	tr := p.Clone()
	rep, err := Transform(tr, fakeProfile(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 1 || rep.Converted[0].Temps == 0 {
		t.Fatalf("expected shadow temporaries: %+v (skipped %v)", rep.Converted, rep.Skipped)
	}

	for _, cond := range []int64{10, 90} {
		checkEquivalence(t, p.Clone(), dataInit(cond, 333, 0), fixedOracles())
	}
}

func TestSelectionHeuristics(t *testing.T) {
	cases := []struct {
		name string
		b    *profile.Branch
		want string // skip reason substring, "" = converted
	}{
		{"good", &profile.Branch{ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200}, ""},
		{"cold", &profile.Branch{ID: 1, Forward: true, Execs: 10, Taken: 6, Correct: 9}, "cold"},
		{"biased-predictable", &profile.Branch{ID: 1, Forward: true, Execs: 10000, Taken: 9700, Correct: 9800}, "gap"},
		{"unpredictable", &profile.Branch{ID: 1, Forward: true, Execs: 10000, Taken: 5000, Correct: 5300}, "gap"},
	}
	for _, c := range cases {
		p := hammock()
		prof := &profile.Profile{ByID: map[int]*profile.Branch{1: c.b}}
		rep, err := Transform(p, prof, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.want == "" {
			if len(rep.Converted) != 1 {
				t.Errorf("%s: not converted: %v", c.name, rep.Skipped)
			}
			continue
		}
		if len(rep.Converted) != 0 || !strings.Contains(rep.Skipped[1], c.want) {
			t.Errorf("%s: skipped=%v, want reason containing %q", c.name, rep.Skipped, c.want)
		}
	}
}

func TestBackwardBranchRejected(t *testing.T) {
	prof := fakeProfile(1)
	prof.ByID[1].Forward = false
	p := hammock()
	rep, err := Transform(p, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 0 {
		t.Error("backward branches must never be converted")
	}
}

func TestMultiPredSuccessorRejected(t *testing.T) {
	// Add a second predecessor of C.
	p := hammock()
	f := p.Funcs[0]
	extra := f.AddBlock("extra")
	f.Blocks[len(f.Blocks)-1], f.Blocks[len(f.Blocks)-2] = f.Blocks[len(f.Blocks)-2], f.Blocks[len(f.Blocks)-1]
	_ = extra
	// Rebuild simpler: emit a jmp to C from a new unreachable block placed
	// at the end (after D).
	f.Blocks[len(f.Blocks)-1].Instrs = []isa.Instr{ir.Jmp(3)}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := Transform(p, fakeProfile(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 0 || !strings.Contains(rep.Skipped[1], "predecessors") {
		t.Errorf("multi-pred successor must be rejected: %v", rep.Skipped)
	}
}

func TestCallInRegionRejected(t *testing.T) {
	p := hammock()
	callee := &ir.Func{Name: "callee"}
	cb := callee.AddBlock("entry")
	callee.Emit(cb, ir.Ret())
	p.AddFunc(callee)
	// Insert a call into block B (index 2 of main).
	blk := p.Funcs[0].Blocks[2]
	blk.Instrs = append([]isa.Instr{ir.Call(1)}, blk.Instrs...)
	rep, err := Transform(p, fakeProfile(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 0 || !strings.Contains(rep.Skipped[1], "call") {
		t.Errorf("call in region must be rejected: %v", rep.Skipped)
	}
}

func TestBothBranchesConvertedAndEquivalent(t *testing.T) {
	// Two hammocks in sequence: both convert, semantics preserved.
	build := func() *ir.Program {
		f := &ir.Func{Name: "main"}
		init := f.AddBlock("init")
		a1 := f.AddBlock("A1")
		b1 := f.AddBlock("B1")
		c1 := f.AddBlock("C1")
		a2 := f.AddBlock("A2")
		b2 := f.AddBlock("B2")
		c2 := f.AddBlock("C2")
		d := f.AddBlock("D")
		f.Emit(init, ir.Li(isa.R(1), dataBase), ir.Li(isa.R(2), 50))
		f.Emit(a1, ir.Ld(isa.R(6), isa.R(1), 0), ir.Cmp(isa.CMPLT, isa.R(7), isa.R(6), isa.R(2)), ir.BrID(isa.R(7), c1, 1))
		f.Emit(b1, ir.Addi(isa.R(8), isa.R(8), 1), ir.Jmp(a2))
		f.Emit(c1, ir.Addi(isa.R(8), isa.R(8), 2))
		f.Emit(a2, ir.Ld(isa.R(6), isa.R(1), 8), ir.Cmp(isa.CMPLT, isa.R(7), isa.R(6), isa.R(2)), ir.BrID(isa.R(7), c2, 2))
		f.Emit(b2, ir.Addi(isa.R(9), isa.R(9), 1), ir.Jmp(d))
		f.Emit(c2, ir.Addi(isa.R(9), isa.R(9), 2))
		f.Emit(d, ir.St(isa.R(1), 64, isa.R(8)), ir.St(isa.R(1), 72, isa.R(9)), ir.Halt())
		return &ir.Program{Funcs: []*ir.Func{f}}
	}
	prof := &profile.Profile{ByID: map[int]*profile.Branch{
		1: {ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
		2: {ID: 2, Forward: true, Execs: 5000, Taken: 2000, Correct: 4600},
	}}
	trans := build()
	rep, err := Transform(trans, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Converted) != 2 {
		t.Fatalf("converted %d, want 2: %v", len(rep.Converted), rep.Skipped)
	}

	for _, vals := range [][2]int64{{10, 10}, {10, 90}, {90, 10}, {90, 90}} {
		gm := mem.New()
		gm.MustStore(uint64(dataBase), vals[0])
		gm.MustStore(uint64(dataBase)+8, vals[1])
		if _, _, err := interp.Run(ir.MustLinearize(build()), gm, interp.Options{}); err != nil {
			t.Fatal(err)
		}
		for _, oracleTaken := range []bool{false, true} {
			tm := mem.New()
			tm.MustStore(uint64(dataBase), vals[0])
			tm.MustStore(uint64(dataBase)+8, vals[1])
			ot := oracleTaken
			_, _, err := interp.Run(ir.MustLinearize(trans), tm, interp.Options{
				PredictOracle: func(pc, id int) bool { return ot },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tm.Equal(gm) {
				t.Errorf("vals=%v oracle=%v: mismatch", vals, oracleTaken)
			}
		}
	}
}

// TestRandomHammockEquivalence is the heavyweight property test: randomly
// generated hammocks must survive transformation with identical semantics
// under adversarial predict oracles, in both the functional interpreter
// and the timing pipeline.
func TestRandomHammockEquivalence(t *testing.T) {
	dsts := []isa.Reg{isa.R(5), isa.R(6), isa.R(8), isa.R(9), isa.R(10), isa.R(11)}
	srcs := []isa.Reg{isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6), isa.R(8), isa.R(9), isa.R(10), isa.R(11)}
	randALU := func(r *rand.Rand) isa.Instr {
		ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.CMPLT, isa.CMPGE}
		return ir.Op3(ops[r.Intn(len(ops))], dsts[r.Intn(len(dsts))], srcs[r.Intn(len(srcs))], srcs[r.Intn(len(srcs))])
	}
	randInstr := func(r *rand.Rand) isa.Instr {
		switch r.Intn(6) {
		case 0:
			return ir.Ld(dsts[r.Intn(len(dsts))], isa.R(1), int64(r.Intn(16))*8)
		case 1:
			return ir.St(isa.R(1), 128+int64(r.Intn(16))*8, srcs[r.Intn(len(srcs))])
		default:
			return randALU(r)
		}
	}

	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := &ir.Func{Name: "main"}
		init := f.AddBlock("init")
		a := f.AddBlock("A")
		b := f.AddBlock("B")
		c := f.AddBlock("C")
		d := f.AddBlock("D")
		f.Emit(init, ir.Li(isa.R(1), dataBase), ir.Li(isa.R(2), int64(r.Intn(100))),
			ir.Li(isa.R(3), int64(r.Intn(100))), ir.Li(isa.R(4), int64(r.Intn(100))))
		for i := 0; i < r.Intn(5); i++ {
			f.Emit(a, randInstr(r))
		}
		f.Emit(a,
			ir.Ld(isa.R(12), isa.R(1), 0),
			ir.Cmp(isa.CMPLT, isa.R(13), isa.R(12), isa.R(2)),
			ir.BrID(isa.R(13), c, 1),
		)
		for i := 0; i < 1+r.Intn(6); i++ {
			f.Emit(b, randInstr(r))
		}
		f.Emit(b, ir.Jmp(d))
		for i := 0; i < 1+r.Intn(6); i++ {
			f.Emit(c, randInstr(r))
		}
		for i, reg := range srcs {
			f.Emit(d, ir.St(isa.R(1), 256+int64(i)*8, reg))
		}
		f.Emit(d, ir.Halt())
		orig := &ir.Program{Funcs: []*ir.Func{f}}

		trans := orig.Clone()
		rep, err := Transform(trans, fakeProfile(1), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Converted) != 1 {
			t.Fatalf("seed %d: skipped: %v", seed, rep.Skipped)
		}

		initMem := func(m *mem.Memory) {
			rr := rand.New(rand.NewSource(seed + 1000))
			for off := uint64(0); off < 1024; off += 8 {
				m.MustStore(uint64(dataBase)+off, int64(rr.Intn(200)))
			}
		}
		gm := mem.New()
		initMem(gm)
		if _, _, err := interp.Run(ir.MustLinearize(orig), gm, interp.Options{}); err != nil {
			t.Fatalf("seed %d original: %v", seed, err)
		}
		or := rand.New(rand.NewSource(seed + 7))
		tm := mem.New()
		initMem(tm)
		if _, _, err := interp.Run(ir.MustLinearize(trans), tm, interp.Options{
			PredictOracle: func(pc, id int) bool { return or.Intn(2) == 0 },
		}); err != nil {
			t.Fatalf("seed %d transformed: %v\n%s", seed, err, trans)
		}
		if !tm.Equal(gm) {
			t.Fatalf("seed %d: interpreter mismatch\noriginal:\n%s\ntransformed:\n%s", seed, orig, trans)
		}
		pm := mem.New()
		initMem(pm)
		if _, err := pipeline.New(ir.MustLinearize(trans), pm, pipeline.DefaultConfig(4)).Run(); err != nil {
			t.Fatalf("seed %d pipeline: %v", seed, err)
		}
		if !pm.Equal(gm) {
			t.Fatalf("seed %d: pipeline mismatch\ntransformed:\n%s", seed, trans)
		}
	}
}
