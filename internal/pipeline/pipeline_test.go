package pipeline

import (
	"strings"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

func cfg4() Config { return DefaultConfig(4) }

func run(t *testing.T, p *ir.Program, cfg Config) (*Machine, *Stats, *mem.Memory) {
	t.Helper()
	im := ir.MustLinearize(p)
	m := mem.New()
	mach := New(im, m, cfg)
	st, err := mach.Run()
	if err != nil {
		t.Fatalf("pipeline run: %v", err)
	}
	return mach, st, m
}

// straightLine builds n independent ALU ops then a store + halt.
func straightLine(n int) *ir.Program {
	f := &ir.Func{Name: "main"}
	b := f.AddBlock("b")
	e := f.AddBlock("e")
	for i := 0; i < n; i++ {
		f.Emit(b, ir.Addi(isa.R(1+i%8), isa.R(1+i%8), 1))
	}
	f.Emit(b, ir.Li(isa.R(20), mem.FaultBoundary))
	f.Emit(e, ir.St(isa.R(20), 0, isa.R(1)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

// loopedBody builds `iters` iterations over a body emitted by emit(f, blk),
// so the I-cache is warm in steady state.
func loopedBody(iters int64, emit func(f *ir.Func, blk int)) *ir.Program {
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	loop := f.AddBlock("loop")
	done := f.AddBlock("done")
	f.Emit(init, ir.Li(isa.R(30), 0), ir.Li(isa.R(31), iters))
	emit(f, loop)
	f.Emit(loop,
		ir.Addi(isa.R(30), isa.R(30), 1),
		ir.Cmp(isa.CMPLT, isa.R(29), isa.R(30), isa.R(31)),
		ir.BrID(isa.R(29), loop, 1),
	)
	f.Emit(done, ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

func TestStraightLineHalts(t *testing.T) {
	_, st, m := run(t, straightLine(64), cfg4())
	if !st.Halted {
		t.Fatal("machine did not halt")
	}
	if st.Committed != 64+3 {
		t.Errorf("committed %d, want 67", st.Committed)
	}
	if v, _ := m.Load(mem.FaultBoundary); v != 8 {
		t.Errorf("result %d, want 8", v)
	}
	if st.WrongPathIssued != 0 {
		t.Errorf("straight-line code issued %d wrong-path instructions", st.WrongPathIssued)
	}
}

func TestFrontEndDepthDelaysFirstIssue(t *testing.T) {
	// A single instruction fetched at cycle 0 must not issue before
	// cycle FrontEndDepth-1; total cycles reflect the pipeline fill.
	_, st, _ := run(t, straightLine(1), cfg4())
	if st.Cycles < int64(cfg4().FrontEndDepth) {
		t.Errorf("cycles %d too small for a %d-deep front end", st.Cycles, cfg4().FrontEndDepth)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// r1 += r1 chain: one instruction per cycle regardless of width.
	f := &ir.Func{Name: "main"}
	b := f.AddBlock("b")
	e := f.AddBlock("e")
	const n = 100
	for i := 0; i < n; i++ {
		f.Emit(b, ir.Addi(isa.R(1), isa.R(1), 1))
	}
	f.Emit(e, ir.Halt())
	_, st, _ := run(t, &ir.Program{Funcs: []*ir.Func{f}}, cfg4())
	if st.Cycles < n {
		t.Errorf("dependent chain of %d finished in %d cycles", n, st.Cycles)
	}
}

func TestIntUnitsBoundIssueWidth(t *testing.T) {
	// Independent integer ops on a 4-wide machine with 2 INT units:
	// steady-state throughput must be ~2/cycle, not 4 (loop for warm I$).
	p := loopedBody(300, func(f *ir.Func, blk int) {
		for i := 0; i < 32; i++ {
			f.Emit(blk, ir.Addi(isa.R(1+i%8), isa.R(1+i%8), 1))
		}
	})
	_, st, _ := run(t, p, cfg4())
	ipc := st.IPC()
	if ipc > 2.2 {
		t.Errorf("IPC %.2f exceeds the 2-INT-unit bound", ipc)
	}
	if ipc < 1.5 {
		t.Errorf("IPC %.2f too low for independent ops", ipc)
	}
}

func TestMixedFUWidth(t *testing.T) {
	// Mixing INT and FP lets a 4-wide machine beat the 2-INT bound.
	p := loopedBody(300, func(f *ir.Func, blk int) {
		for i := 0; i < 16; i++ {
			f.Emit(blk,
				ir.Addi(isa.R(1+i%4), isa.R(1+i%4), 1),
				ir.Fop(isa.FADD, isa.F(i%4), isa.F(4+i%4), isa.F(8+i%4)),
			)
		}
	})
	_, st, _ := run(t, p, cfg4())
	if ipc := st.IPC(); ipc < 2.5 {
		t.Errorf("mixed INT/FP IPC %.2f, want > 2.5", ipc)
	}
}

func TestLoadLatencyL1Hit(t *testing.T) {
	// A chain of dependent loads (pointer chasing within one line):
	// each pays the 4-cycle L1 latency.
	f := &ir.Func{Name: "main"}
	b := f.AddBlock("b")
	e := f.AddBlock("e")
	f.Emit(b, ir.Li(isa.R(1), mem.FaultBoundary))
	const n = 50
	for i := 0; i < n; i++ {
		f.Emit(b, ir.Ld(isa.R(1), isa.R(1), 0))
	}
	f.Emit(e, ir.Halt())
	p := &ir.Program{Funcs: []*ir.Func{f}}
	im := ir.MustLinearize(p)
	m := mem.New()
	m.MustStore(mem.FaultBoundary, mem.FaultBoundary) // self-pointer
	mach := New(im, m, cfg4())
	st, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After the first miss fill, each load is a dependent L1 hit: >= 4n cycles.
	if st.Cycles < 4*n {
		t.Errorf("dependent load chain: %d cycles for %d loads, want >= %d", st.Cycles, n, 4*n)
	}
	_ = mach
}

// loopProgram: a counted loop of n iterations whose body stores i.
func loopProgram(n int64) *ir.Program {
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	loop := f.AddBlock("loop")
	done := f.AddBlock("done")
	f.Emit(init, ir.Li(isa.R(1), 0), ir.Li(isa.R(2), n), ir.Li(isa.R(3), mem.FaultBoundary))
	f.Emit(loop,
		ir.St(isa.R(3), 0, isa.R(1)),
		ir.Addi(isa.R(1), isa.R(1), 1),
		ir.Cmp(isa.CMPLT, isa.R(4), isa.R(1), isa.R(2)),
		ir.BrID(isa.R(4), loop, 1),
	)
	f.Emit(done, ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

func TestLoopMatchesInterpreter(t *testing.T) {
	p := loopProgram(200)
	// Functional golden run.
	im := ir.MustLinearize(p)
	gm := mem.New()
	gst, _, err := interp.Run(im, gm, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Timing run.
	_, st, m := run(t, p, cfg4())
	if v, _ := m.Load(mem.FaultBoundary); v != 199 {
		t.Errorf("final store %d, want 199", v)
	}
	if !m.Equal(gm) {
		t.Error("timing and functional memories differ")
	}
	gv, _ := gm.Load(mem.FaultBoundary)
	mv, _ := m.Load(mem.FaultBoundary)
	if gv != mv {
		t.Errorf("functional %d vs timing %d", gv, mv)
	}
	if st.CondBranches != 200 {
		t.Errorf("committed branches %d, want 200", st.CondBranches)
	}
	_ = gst
}

func TestPredictableLoopFewMispredicts(t *testing.T) {
	_, st, _ := run(t, loopProgram(2000), cfg4())
	// A backward loop branch is nearly perfectly predictable; allow
	// warmup plus the final exit.
	if st.BrMispredicts > 20 {
		t.Errorf("loop mispredicted %d times in 2000 iterations", st.BrMispredicts)
	}
}

// mispredictedStore: a branch the static-NT predictor always gets wrong,
// whose wrong (fall-through) path begins with a store to a sentinel. The
// branch condition comes from a dependent load chain, so by the time the
// branch finally issues the wrong-path store's operands have long been
// ready and it issues in the branch's shadow (and must be squashed).
func mispredictedStore() *ir.Program {
	f := &ir.Func{Name: "main"}
	a := f.AddBlock("a")
	wrong := f.AddBlock("wrong")
	right := f.AddBlock("right")
	f.Emit(a,
		ir.Li(isa.R(2), mem.FaultBoundary),
		ir.Li(isa.R(3), 666),
		ir.Li(isa.R(9), mem.FaultBoundary+64),
		ir.Ld(isa.R(1), isa.R(9), 0), // slow condition (cold miss)
		ir.BrID(isa.R(1), right, 1),  // taken when script value != 0
	)
	f.Emit(wrong, ir.St(isa.R(2), 8, isa.R(3)), ir.Jmp(right))
	f.Emit(right, ir.St(isa.R(2), 0, isa.R(3)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

func TestWrongPathStoreNeverCommits(t *testing.T) {
	cfg := cfg4()
	cfg.NewPredictor = func() bpred.DirPredictor { return &bpred.Static{} } // always NT
	im := ir.MustLinearize(mispredictedStore())
	mm := mem.New()
	mm.MustStore(mem.FaultBoundary+64, 1) // condition value: branch taken
	mach := New(im, mm, cfg)
	st, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := mm
	if st.BrMispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", st.BrMispredicts)
	}
	if v, _ := m.Load(mem.FaultBoundary + 8); v != 0 {
		t.Errorf("wrong-path store leaked to memory: %d", v)
	}
	if v, _ := m.Load(mem.FaultBoundary); v != 666 {
		t.Errorf("correct-path store missing: %d", v)
	}
	if st.WrongPathIssued == 0 {
		t.Error("expected wrong-path instructions to issue in the branch shadow")
	}
}

func TestWrongPathRegisterWritesRollBack(t *testing.T) {
	// Wrong path clobbers r3 before the flush; the correct path stores
	// r3 — it must see the pre-branch value.
	f := &ir.Func{Name: "main"}
	a := f.AddBlock("a")
	wrong := f.AddBlock("wrong")
	right := f.AddBlock("right")
	f.Emit(a,
		ir.Li(isa.R(1), 1),
		ir.Li(isa.R(2), mem.FaultBoundary),
		ir.Li(isa.R(3), 42),
		ir.BrID(isa.R(1), right, 1),
	)
	f.Emit(wrong, ir.Li(isa.R(3), 13), ir.Jmp(right))
	f.Emit(right, ir.St(isa.R(2), 0, isa.R(3)), ir.Halt())
	cfg := cfg4()
	cfg.NewPredictor = func() bpred.DirPredictor { return &bpred.Static{} }
	_, _, m := run(t, &ir.Program{Funcs: []*ir.Func{f}}, cfg)
	if v, _ := m.Load(mem.FaultBoundary); v != 42 {
		t.Errorf("r3 = %d after flush, want 42 (wrong-path write must be undone)", v)
	}
}

func TestCallRetThroughRAS(t *testing.T) {
	callee := &ir.Func{Name: "inc"}
	cb := callee.AddBlock("entry")
	callee.Emit(cb, ir.Addi(isa.R(1), isa.R(1), 1), ir.Ret())

	main := &ir.Func{Name: "main"}
	m0 := main.AddBlock("m0")
	m1 := main.AddBlock("m1")
	m2 := main.AddBlock("m2")
	m3 := main.AddBlock("m3")
	main.Emit(m0, ir.Li(isa.R(1), 0), ir.Li(isa.R(2), mem.FaultBoundary), ir.Call(1))
	main.Emit(m1, ir.Call(1))
	main.Emit(m2, ir.Call(1))
	main.Emit(m3, ir.St(isa.R(2), 0, isa.R(1)), ir.Halt())

	_, st, m := run(t, &ir.Program{Funcs: []*ir.Func{main, callee}}, cfg4())
	if v, _ := m.Load(mem.FaultBoundary); v != 3 {
		t.Errorf("call chain result %d, want 3", v)
	}
	if st.RetMispredicts != 0 {
		t.Errorf("RAS mispredicted %d well-nested returns", st.RetMispredicts)
	}
}

// decomposed builds the canonical transformed hammock with a scripted
// condition stream read from memory: cond = script[i].
func decomposed(n int64) (*ir.Program, uint64) {
	const scriptBase = uint64(1 << 20)
	out := uint64(mem.FaultBoundary)
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	head := f.AddBlock("head") // loop head: load cond, predict
	ba := f.AddBlock("BA'")
	bp := f.AddBlock("B'")
	ca := f.AddBlock("CA'")
	cp := f.AddBlock("C'")
	corrC := f.AddBlock("Correct-C")
	corrB := f.AddBlock("Correct-B")
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")

	f.Emit(init,
		ir.Li(isa.R(1), 0), // i
		ir.Li(isa.R(2), n), // limit
		ir.Li(isa.R(3), int64(scriptBase)),
		ir.Li(isa.R(4), int64(out)),
		ir.Li(isa.R(10), 0), // accumulator
	)
	f.Emit(head,
		ir.Muli(isa.R(5), isa.R(1), 8),
		ir.Add(isa.R(5), isa.R(5), isa.R(3)),
		ir.Predict(ca, 7),
	)
	// Predicted not-taken path (B): condition slice pushed down.
	f.Emit(ba,
		ir.Ld(isa.R(6), isa.R(5), 0), // cond value
		ir.Resolve(isa.R(6), false, corrC, 7),
	)
	f.Emit(bp, ir.Addi(isa.R(10), isa.R(10), 1), ir.Jmp(latch))
	// Predicted taken path (C).
	f.Emit(ca,
		ir.Ld(isa.R(6), isa.R(5), 0),
		ir.Resolve(isa.R(6), true, corrB, 7),
	)
	f.Emit(cp, ir.Addi(isa.R(10), isa.R(10), 100), ir.Jmp(latch))
	f.Emit(corrC, ir.Jmp(cp))
	f.Emit(corrB, ir.Jmp(bp))
	f.Emit(latch,
		ir.Addi(isa.R(1), isa.R(1), 1),
		ir.Cmp(isa.CMPLT, isa.R(7), isa.R(1), isa.R(2)),
		ir.BrID(isa.R(7), head, 1),
	)
	f.Emit(done, ir.St(isa.R(4), 0, isa.R(10)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}, scriptBase
}

func TestDecomposedBranchEndToEnd(t *testing.T) {
	const n = 3000
	p, scriptBase := decomposed(n)
	im := ir.MustLinearize(p)

	// Scripted outcomes: period-5 pattern TTFFT — predictable by the
	// tournament predictor, bias 60%.
	pat := []int64{1, 1, 0, 0, 1}
	taken := int64(0)
	m := mem.New()
	for i := int64(0); i < n; i++ {
		v := pat[i%int64(len(pat))]
		m.MustStore(scriptBase+uint64(i)*8, v)
		taken += v
	}
	want := taken*100 + (n - taken)

	// Golden functional run on a clone.
	gm := m.Clone()
	if _, _, err := interp.Run(im, gm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	gv, _ := gm.Load(mem.FaultBoundary)
	if gv != want {
		t.Fatalf("golden model wrong: %d, want %d", gv, want)
	}

	mach := New(im, m, cfg4())
	st, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(mem.FaultBoundary)
	if v != want {
		t.Errorf("decomposed result %d, want %d", v, want)
	}
	// Wrong-path fetches may consume extra predict instructions (the DBB
	// tail restore repairs them), so Predicts is a lower-bounded count.
	if st.Predicts < n || st.Predicts > n+n/10 {
		t.Errorf("predicts %d, want ~%d", st.Predicts, n)
	}
	if st.Resolves != n {
		t.Errorf("resolves %d, want %d", st.Resolves, n)
	}
	// The pattern is learnable: resolve misprediction rate must be low
	// after warmup (well under the 40% a static choice would give).
	if st.ResMispredicts > n/5 {
		t.Errorf("resolve mispredicts %d of %d; predictor not being trained through the DBB",
			st.ResMispredicts, n)
	}
	if mach.DBB.Inserts < n || mach.DBB.Updates < n {
		t.Errorf("DBB traffic: %d inserts, %d updates, want >= %d each",
			mach.DBB.Inserts, mach.DBB.Updates, n)
	}
}

func TestResolveStallAttribution(t *testing.T) {
	// The resolve's condition comes from a load; with a cold cache the
	// resolve must accumulate head-of-line stall cycles.
	p, scriptBase := decomposed(50)
	im := ir.MustLinearize(p)
	m := mem.New()
	for i := 0; i < 50; i++ {
		m.MustStore(scriptBase+uint64(i)*8, int64(i%2))
	}
	mach := New(im, m, cfg4())
	st, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ResolveStallCycles == 0 {
		t.Error("resolve stall cycles not attributed")
	}
	bs := st.PerBranch[7]
	if bs == nil || bs.StallCycles == 0 {
		t.Error("per-branch stall attribution missing")
	}
}

func TestMaxInstrsCap(t *testing.T) {
	cfg := cfg4()
	cfg.MaxInstrs = 500
	_, st, _ := run(t, loopProgram(1_000_000), cfg)
	if st.Committed < 500 || st.Committed > 600 {
		t.Errorf("committed %d with a 500-instruction cap", st.Committed)
	}
	if st.Halted {
		t.Error("capped run must not report a clean halt")
	}
}

func TestCycleCapErrors(t *testing.T) {
	f := &ir.Func{Name: "main"}
	l := f.AddBlock("l")
	e := f.AddBlock("e")
	f.Emit(l, ir.Jmp(l))
	f.Emit(e, ir.Halt())
	cfg := cfg4()
	cfg.MaxCycles = 1000
	im := ir.MustLinearize(&ir.Program{Funcs: []*ir.Func{f}})
	_, err := New(im, mem.New(), cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Fatalf("want cycle-limit error, got %v", err)
	}
}

// TestZeroWidthRefused pins that a machine with no issue slots fails at
// once rather than spinning to the cycle cap.
func TestZeroWidthRefused(t *testing.T) {
	for _, w := range []int{0, -1} {
		cfg := cfg4()
		cfg.Width = w
		st, err := New(ir.MustLinearize(straightLine(10)), mem.New(), cfg).Run()
		if err == nil || !strings.Contains(err.Error(), "issue width") {
			t.Fatalf("width %d: want issue-width error, got %v", w, err)
		}
		if st.Cycles != 0 {
			t.Errorf("width %d: ran %d cycles before refusing", w, st.Cycles)
		}
	}
}

func TestWidthScaling(t *testing.T) {
	// Wider machines must not be slower on parallel code.
	p := straightLine(600)
	var cycles [3]int64
	for i, w := range []int{2, 4, 8} {
		_, st, _ := run(t, p, DefaultConfig(w))
		cycles[i] = st.Cycles
	}
	if cycles[1] > cycles[0] || cycles[2] > cycles[1] {
		t.Errorf("cycles not monotone with width: %v", cycles)
	}
}

func TestTable1Defaults(t *testing.T) {
	c := DefaultConfig(4)
	if c.FrontEndDepth != 5 || c.FetchBufEntries != 32 {
		t.Error("front end must be 5 stages with a 32-entry fetch buffer")
	}
	if c.IntUnits != 2 || c.MemUnits != 2 || c.FPUnits != 4 {
		t.Error("FU mix must be 2 INT / 2 LD-ST / 4 FP")
	}
	if c.RASEntries != 64 || c.BTBLogEntries != 12 || c.DBBEntries != 16 {
		t.Error("BTB/RAS/DBB sizing wrong")
	}
}

func TestDBBOccupancyStaysSmall(t *testing.T) {
	// The paper sizes the DBB at 16 after observing that in-order
	// back-pressure keeps outstanding decomposed branches few; our
	// decomposed hammock should confirm single-digit occupancy.
	p, scriptBase := decomposed(500)
	im := ir.MustLinearize(p)
	m := mem.New()
	for i := 0; i < 500; i++ {
		m.MustStore(scriptBase+uint64(i)*8, int64(i%3%2))
	}
	mach := New(im, m, cfg4())
	st, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDBBOccupancy == 0 {
		t.Fatal("occupancy never measured")
	}
	if st.MaxDBBOccupancy > 16 {
		t.Errorf("DBB occupancy %d exceeds the paper's 16-entry sizing", st.MaxDBBOccupancy)
	}
}

// TestPoisonFaultSurfacesOnCommittedPath injects an illegal hoist: a
// speculative load of a garbage address whose poisoned result is consumed
// by a store on the committed path. The deferred-fault machinery must
// abort the simulation rather than silently storing junk.
func TestPoisonFaultSurfacesOnCommittedPath(t *testing.T) {
	f := &ir.Func{Name: "main"}
	a := f.AddBlock("A")
	ba := f.AddBlock("BA'")
	bp := f.AddBlock("B'")
	ca := f.AddBlock("CA'")
	cp := f.AddBlock("C'")
	corrC := f.AddBlock("Correct-C")
	corrB := f.AddBlock("Correct-B")
	d := f.AddBlock("D")
	f.Emit(a,
		ir.Li(isa.R(1), 0), // condition false -> fall-through path
		ir.Li(isa.R(2), mem.FaultBoundary),
		ir.Predict(ca, 5),
	)
	f.Emit(ba,
		ir.LdSpec(isa.R(3), isa.R(9), 0), // r9 = 0: faulting address, suppressed
		ir.Resolve(isa.R(1), false, corrC, 5),
	)
	f.Emit(bp, ir.St(isa.R(2), 0, isa.R(3)), ir.Jmp(d)) // consumes poison: must fault
	f.Emit(ca, ir.Resolve(isa.R(1), true, corrB, 5))
	f.Emit(cp, ir.Jmp(d))
	f.Emit(corrC, ir.Jmp(cp))
	f.Emit(corrB, ir.Jmp(bp))
	f.Emit(d, ir.Halt())

	im := ir.MustLinearize(&ir.Program{Funcs: []*ir.Func{f}})
	_, err := New(im, mem.New(), cfg4()).Run()
	if err == nil || !strings.Contains(err.Error(), "poison") {
		t.Fatalf("consuming a poisoned value on the committed path must fault, got %v", err)
	}
}

// TestPoisonOnWrongPathIsHarmless is the complementary case: the poisoned
// consumer sits on the path the resolve squashes, so no fault may surface.
func TestPoisonOnWrongPathIsHarmless(t *testing.T) {
	f := &ir.Func{Name: "main"}
	a := f.AddBlock("A")
	wrong := f.AddBlock("wrong")
	right := f.AddBlock("right")
	f.Emit(a,
		ir.Li(isa.R(1), 1), // taken: the fall-through block is wrong-path
		ir.Li(isa.R(2), mem.FaultBoundary),
		ir.Li(isa.R(9), mem.FaultBoundary+64),
		ir.Ld(isa.R(4), isa.R(9), 0), // slow condition
		ir.Cmp(isa.CMPNE, isa.R(4), isa.R(4), isa.R(0)),
		ir.BrID(isa.R(4), right, 1),
	)
	f.Emit(wrong,
		ir.LdSpec(isa.R(3), isa.R(0), 0), // poisons r3 (wrong path only)
		ir.St(isa.R(2), 8, isa.R(3)),     // would fault if committed
		ir.Jmp(right),
	)
	f.Emit(right, ir.St(isa.R(2), 0, isa.R(2)), ir.Halt())

	im := ir.MustLinearize(&ir.Program{Funcs: []*ir.Func{f}})
	cfg := cfg4()
	cfg.NewPredictor = func() bpred.DirPredictor { return &bpred.Static{} } // mispredict
	m := mem.New()
	m.MustStore(mem.FaultBoundary+64, 1)
	st, err := New(im, m, cfg).Run()
	if err != nil {
		t.Fatalf("wrong-path poison must be squashed silently: %v", err)
	}
	if !st.Halted {
		t.Error("machine did not halt")
	}
	if v, _ := m.Load(mem.FaultBoundary + 8); v != 0 {
		t.Error("wrong-path store leaked")
	}
}

// TestExceptionalControlFlow exercises Section 4's two strategies for
// interrupts splitting predict/resolve pairs: both must preserve
// architectural correctness; the invalidate strategy must suppress the
// resulting stale updates (visible as DBB spurious skips).
func TestExceptionalControlFlow(t *testing.T) {
	const n = 2000
	build := func() (*ir.Image, *mem.Memory) {
		p, scriptBase := decomposed(n)
		im := ir.MustLinearize(p)
		m := mem.New()
		pat := []int64{1, 1, 0, 1, 0}
		for i := int64(0); i < n; i++ {
			m.MustStore(scriptBase+uint64(i)*8, pat[i%5])
		}
		return im, m
	}

	im, gm := build()
	if _, _, err := interp.Run(im, gm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _ := gm.Load(mem.FaultBoundary)

	type outcome struct {
		res    int64
		skips  uint64
		excs   int64
		cycles int64
	}
	runMode := func(every int64, invalidate bool) outcome {
		im2, m := build()
		cfg := cfg4()
		cfg.ExceptionEveryN = every
		cfg.DBBInvalidateOnException = invalidate
		mach := New(im2, m, cfg)
		st, err := mach.Run()
		if err != nil {
			t.Fatalf("every=%d invalidate=%v: %v", every, invalidate, err)
		}
		v, _ := m.Load(mem.FaultBoundary)
		return outcome{res: v, skips: mach.DBB.SpuriousSkips, excs: st.Exceptions, cycles: st.Cycles}
	}

	clean := runMode(0, false)
	ignore := runMode(400, false)
	invalidate := runMode(400, true)

	for name, o := range map[string]outcome{"clean": clean, "ignore": ignore, "invalidate": invalidate} {
		if o.res != want {
			t.Errorf("%s: result %d, want %d", name, o.res, want)
		}
	}
	if ignore.excs == 0 || invalidate.excs == 0 {
		t.Fatal("no exceptions injected")
	}
	if invalidate.skips == 0 {
		t.Error("invalidate mode must suppress stale updates (spurious skips)")
	}
	if ignore.skips != 0 {
		t.Error("ignore mode must not suppress updates")
	}
	// The paper's argument: these events are rare enough that either
	// strategy barely moves performance.
	for name, o := range map[string]outcome{"ignore": ignore, "invalidate": invalidate} {
		if ratio := float64(o.cycles) / float64(clean.cycles); ratio > 1.15 {
			t.Errorf("%s mode cost %.1f%% — exceptional control flow should be cheap",
				name, (ratio-1)*100)
		}
	}
}
