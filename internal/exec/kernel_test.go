package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// allOps is every defined opcode; RESOLVE is the last one.
func allOps() []isa.Op {
	ops := make([]isa.Op, 0, int(isa.RESOLVE)+1)
	for op := isa.NOP; op <= isa.RESOLVE; op++ {
		ops = append(ops, op)
	}
	return ops
}

// interestingVals mixes the values the fault and poison paths care about:
// zero (divide-by-zero, not-taken conditions), small integers, valid
// memory bases, invalid (faulting) addresses, and FP bit patterns. It
// deliberately excludes MinInt64 so DIV/REM never hit Go's only panicking
// division (MinInt64 / -1) — the ISA inherits the host behavior there in
// both dispatch engines alike.
func interestingVals(r *rand.Rand) int64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return int64(r.Intn(1000)) - 500
	case 4:
		return int64(mem.FaultBoundary) + int64(r.Intn(64))*8
	case 5:
		return int64(r.Intn(int(mem.FaultBoundary))) // below the boundary: faults
	case 6:
		return fbits(r.NormFloat64() * 100)
	default:
		return r.Int63() >> uint(r.Intn(32))
	}
}

// randomInstr builds a random instance of the given opcode with all
// register operands in range (Step indexes the register file with every
// operand field of some opcodes regardless of use).
func randomInstr(r *rand.Rand, op isa.Op) isa.Instr {
	reg := func() isa.Reg { return isa.Reg(r.Intn(isa.NumRegs)) }
	ins := isa.Instr{
		Op:     op,
		Dst:    reg(),
		Src1:   reg(),
		Src2:   reg(),
		Target: r.Intn(64),
		Expect: r.Intn(2) == 0,
	}
	switch r.Intn(3) {
	case 0:
		ins.Imm = int64(r.Intn(64)) * 8
	default:
		ins.Imm = interestingVals(r)
	}
	return ins
}

// randomState builds a random architectural state over the given memory,
// with a sprinkling of poisoned registers to exercise every poison path.
func randomState(r *rand.Rand, m Memory, pc int) *State {
	st := NewState(m, pc)
	for i := range st.Regs {
		st.Regs[i] = interestingVals(r)
	}
	for i := range st.Poison {
		st.Poison[i] = r.Intn(4) == 0
	}
	return st
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// seedMemory stores a few words at valid addresses so loads can hit.
func seedMemory(r *rand.Rand, m *mem.Memory) {
	for i := 0; i < 64; i++ {
		m.MustStore(mem.FaultBoundary+uint64(i)*8, interestingVals(r))
	}
}

// TestKernelStepEquivalence is the dispatch property: for every opcode
// and random (instruction, state) pairs — including poison faults,
// suppressed LDS faults, and real memory faults — the compiled kernel
// must leave the machine in exactly the state the reference Step switch
// does, and return the same Result and error. PREDICT is checked against
// Step's not-taken choice, which is what the kernel compiles.
func TestKernelStepEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, op := range allOps() {
		for trial := 0; trial < 400; trial++ {
			ins := randomInstr(r, op)
			checkKernelStep(t, ins, r.Intn(64), int64(trial))
		}
	}
}

// FuzzKernelMatchesStep extends the dispatch property to any opcode
// (unknown ones included), register fields, immediate, target, pc and
// state seed: Compile must agree with Step on Result, error, state and
// memory, and on fusable ops the pure form the pipeline issues through
// (CompilePure) must leave the registers Step does.
func FuzzKernelMatchesStep(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for _, op := range append(allOps(), isa.Op(200)) {
		for trial := 0; trial < 2; trial++ {
			ins := randomInstr(r, op)
			f.Add(uint8(ins.Op), uint8(ins.Dst), uint8(ins.Src1), uint8(ins.Src2),
				ins.Imm, ins.Target, ins.Expect, r.Intn(64), int64(trial))
		}
	}
	f.Fuzz(func(t *testing.T, op, dst, src1, src2 uint8, imm int64, target int, expect bool, pc int, seed int64) {
		ins := isa.Instr{
			Op:     isa.Op(op),
			Dst:    isa.Reg(dst % isa.NumRegs),
			Src1:   isa.Reg(src1 % isa.NumRegs),
			Src2:   isa.Reg(src2 % isa.NumRegs),
			Imm:    imm,
			Target: target,
			Expect: expect,
		}
		checkKernelStep(t, ins, pc, seed)
	})
}

// checkKernelStep runs ins at pc through Step, its compiled kernel and,
// when fusable, its pure form, each from the same random state and
// memory (seeded by seed), and fails on any divergence.
func checkKernelStep(t *testing.T, ins isa.Instr, pc int, seed int64) {
	t.Helper()
	m1 := mem.New()
	seedMemory(rand.New(rand.NewSource(seed)), m1)
	m2 := m1.Clone()
	st1 := randomState(rand.New(rand.NewSource(seed*31+1)), m1, pc)
	st2 := randomState(rand.New(rand.NewSource(seed*31+1)), m2, pc)
	st3 := randomState(rand.New(rand.NewSource(seed*31+1)), m1.Clone(), pc)

	res1, err1 := Step(st1, &ins, false)
	k, kerr := Compile(&ins, pc)
	if kerr != nil {
		// Only an opcode outside the ISA may be rejected, and Step must
		// fail on it too.
		if ins.Op <= isa.RESOLVE || err1 == nil {
			t.Fatalf("%v: compile: %v (step error %v)", ins, kerr, err1)
		}
		return
	}
	res2, err2 := k(st2)

	if res1 != res2 || !sameError(err1, err2) {
		t.Fatalf("%v at pc %d: switch (%+v, %v) != kernel (%+v, %v)",
			ins, pc, res1, err1, res2, err2)
	}
	if st1.Regs != st2.Regs || st1.Poison != st2.Poison ||
		st1.PC != st2.PC || st1.Halted != st2.Halted {
		t.Fatalf("%v at pc %d: state diverged: pc %d/%d halted %v/%v",
			ins, pc, st1.PC, st2.PC, st1.Halted, st2.Halted)
	}
	if !m1.Equal(m2) {
		t.Fatalf("%v at pc %d: memory diverged", ins, pc)
	}
	if pf1, ok := err1.(*PoisonFault); ok {
		pf2 := err2.(*PoisonFault)
		if *pf1 != *pf2 {
			t.Fatalf("%v: poison fault fields diverged: %+v vs %+v", ins, pf1, pf2)
		}
	}

	pure := CompilePure(&ins)
	if pure == nil {
		return
	}
	pure(st3)
	if err1 != nil || st1.PC != pc+1 {
		t.Fatalf("%v at pc %d: fusable op faulted or jumped in Step: pc %d err %v", ins, pc, st1.PC, err1)
	}
	if st1.Regs != st3.Regs || st1.Poison != st3.Poison {
		t.Fatalf("%v at pc %d: pure form diverged from Step", ins, pc)
	}
}

// TestKernelPredictNotTaken pins the documented PREDICT compilation
// choice: the kernel executes the not-taken (fall-through) leg.
func TestKernelPredictNotTaken(t *testing.T) {
	ins := isa.Instr{Op: isa.PREDICT, Target: 40}
	k, err := Compile(&ins, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(mem.New(), 5)
	res, err := k(st)
	if err != nil || res.Taken || st.PC != 6 || res.NextPC != 6 {
		t.Fatalf("PREDICT kernel must fall through: %+v pc=%d err=%v", res, st.PC, err)
	}
}

// TestCompileRejectsUnknownOpcode: the compiler refuses unknown opcodes
// at compile time, naming the opcode and PC, and CompileProgram
// propagates the rejection.
func TestCompileRejectsUnknownOpcode(t *testing.T) {
	bad := isa.Instr{Op: isa.Op(200)}
	if _, err := Compile(&bad, 3); err == nil {
		t.Fatal("Compile must reject an unknown opcode")
	} else if !strings.Contains(err.Error(), "op(200)") || !strings.Contains(err.Error(), "pc 3") {
		t.Fatalf("rejection must name the opcode and pc: %v", err)
	}
	img := []isa.Instr{{Op: isa.NOP}, bad}
	if _, err := CompileProgram(img); err == nil {
		t.Fatal("CompileProgram must propagate the rejection")
	}
}

// TestStepUnknownOpcodeNamesOp is the witness for the step-time error
// message: the reference switch reports the opcode via Op.String().
func TestStepUnknownOpcodeNamesOp(t *testing.T) {
	st := NewState(mem.New(), 9)
	bad := isa.Instr{Op: isa.Op(200)}
	_, err := Step(st, &bad, false)
	if err == nil {
		t.Fatal("Step must error on an unknown opcode")
	}
	want := fmt.Sprintf("exec: unknown opcode %s at pc %d", isa.Op(200).String(), 9)
	if err.Error() != want {
		t.Fatalf("unknown-opcode message = %q, want %q", err.Error(), want)
	}
	if st.PC != 9 {
		t.Fatalf("a failed step must not move the PC: %d", st.PC)
	}
}

// TestDivRemByZeroSpecPin pins the ISA's defined divide-by-zero result —
// zero, with normal poison propagation — in both dispatch engines. The
// semantics used to live implicitly in the switch; the pin keeps compiled
// kernels (including fused runs, where DIV/REM are legal precisely
// because they cannot fault) from ever diverging.
func TestDivRemByZeroSpecPin(t *testing.T) {
	for _, op := range []isa.Op{isa.DIV, isa.REM} {
		ins := isa.Instr{Op: op, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)}
		mk := func() *State {
			st := NewState(mem.New(), 0)
			st.Regs[1] = 99
			st.Regs[2] = 0
			st.Regs[3] = 777 // must be overwritten with 0, not preserved
			return st
		}

		st := mk()
		if _, err := Step(st, &ins, false); err != nil {
			t.Fatalf("%v by zero must not fault: %v", op, err)
		}
		if st.Regs[3] != 0 || st.Poison[isa.R(3)] {
			t.Fatalf("switch %v by zero: r3=%d poison=%v, want 0/false", op, st.Regs[3], st.Poison[isa.R(3)])
		}

		k, err := Compile(&ins, 0)
		if err != nil {
			t.Fatal(err)
		}
		st = mk()
		if _, err := k(st); err != nil {
			t.Fatalf("kernel %v by zero must not fault: %v", op, err)
		}
		if st.Regs[3] != 0 || st.Poison[isa.R(3)] {
			t.Fatalf("kernel %v by zero: r3=%d poison=%v, want 0/false", op, st.Regs[3], st.Poison[isa.R(3)])
		}

		// Poison still propagates from the (zero) divisor.
		st = mk()
		st.Poison[isa.R(2)] = true
		if _, err := k(st); err != nil {
			t.Fatal(err)
		}
		if !st.Poison[isa.R(3)] {
			t.Fatalf("kernel %v by poisoned zero must propagate poison", op)
		}
	}
}

// isFusable reports whether op joins fused runs: CompilePure compiles it.
func isFusable(op isa.Op) bool { return CompilePure(&isa.Instr{Op: op}) != nil }

// TestFusableLegality pins the fusion legality rule over every opcode:
// CompilePure compiles exactly the instructions that can neither fault,
// touch memory, transfer control, nor halt, and only those may join a
// fused run. CMOV is the interesting exclusion — it poison-faults on its
// condition.
func TestFusableLegality(t *testing.T) {
	illegal := map[isa.Op]bool{isa.LD: true, isa.LDS: true, isa.ST: true,
		isa.CMOV: true, isa.BR: true, isa.JMP: true, isa.CALL: true,
		isa.RET: true, isa.HALT: true, isa.PREDICT: true, isa.RESOLVE: true}
	for _, op := range append(allOps(), isa.Op(200)) {
		want := !illegal[op] && op <= isa.RESOLVE
		if got := isFusable(op); got != want {
			t.Errorf("%v: CompilePure non-nil = %v, want %v", op, got, want)
		}
	}
}

// randomFusableBlock builds a straight-line image: n random fusable
// instructions followed by a HALT.
func randomFusableBlock(r *rand.Rand, n int) []isa.Instr {
	var fusable []isa.Op
	for _, op := range allOps() {
		if isFusable(op) {
			fusable = append(fusable, op)
		}
	}
	img := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		img = append(img, randomInstr(r, fusable[r.Intn(len(fusable))]))
	}
	return append(img, isa.Instr{Op: isa.HALT})
}

// TestFusedRunEquivalence: executing a straight-line run through the
// fused form must produce exactly the state per-instruction Step does —
// from every possible entry PC of the run (fall-through, branch target,
// or return address may land mid-run; each entry gets the fused suffix).
func TestFusedRunEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		img := randomFusableBlock(r, 1+r.Intn(12))
		prog, err := CompileProgram(img)
		if err != nil {
			t.Fatal(err)
		}
		n := len(img) - 1 // instructions before the HALT
		for entry := 0; entry <= n; entry++ {
			if got, want := prog.FusedLen(entry), n-entry; got != want {
				t.Fatalf("trial %d: FusedLen(%d) = %d, want %d", trial, entry, got, want)
			}
		}
		if prog.FusedLen(n) != 0 {
			t.Fatalf("trial %d: HALT must not be fusable", trial)
		}

		for entry := 0; entry < n; entry++ {
			seed := int64(trial)*100 + int64(entry)
			st1 := randomState(rand.New(rand.NewSource(seed)), mem.New(), entry)
			st2 := randomState(rand.New(rand.NewSource(seed)), mem.New(), entry)

			for pc := entry; pc < n; pc++ {
				st1.PC = pc
				if _, err := Step(st1, &img[pc], false); err != nil {
					t.Fatalf("trial %d: fusable op must not fault: %v", trial, err)
				}
			}
			prog.RunFused(entry, st2)

			if st1.Regs != st2.Regs || st1.Poison != st2.Poison || st1.PC != st2.PC {
				t.Fatalf("trial %d entry %d: fused run diverged from stepping (pc %d vs %d)",
					trial, entry, st1.PC, st2.PC)
			}
			if st2.PC != n {
				t.Fatalf("trial %d entry %d: fused run must stop at the HALT, pc=%d", trial, entry, st2.PC)
			}
		}
	}
}

// TestFusedRunsBreakAtUnsafeOps: an unsafe instruction (memory, control,
// CMOV) splits runs — the PCs before it fuse only up to it, the op itself
// has no fused form, and the run restarts after it.
func TestFusedRunsBreakAtUnsafeOps(t *testing.T) {
	img := []isa.Instr{
		{Op: isa.ADD, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)},  // 0
		{Op: isa.LI, Dst: isa.R(4), Imm: 7},                           // 1
		{Op: isa.CMOV, Dst: isa.R(5), Src1: isa.R(1), Src2: isa.R(4)}, // 2: breaks
		{Op: isa.SUB, Dst: isa.R(6), Src1: isa.R(4), Src2: isa.R(1)},  // 3
		{Op: isa.HALT}, // 4
	}
	prog, err := CompileProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0, 1, 0}
	for pc, w := range want {
		if got := prog.FusedLen(pc); got != w {
			t.Errorf("FusedLen(%d) = %d, want %d", pc, got, w)
		}
	}
	if prog.FusedLen(-1) != 0 || prog.FusedLen(len(img)) != 0 {
		t.Error("out-of-range FusedLen must be 0")
	}
}

// The dispatch microbenchmarks time the simulator's innermost operation —
// execute one instruction's semantics — through both engines over the
// same instruction mix (ALU, compare, FP, and a taken/not-taken branch).
// Run with:
//
//	go test -bench 'BenchmarkStep(Kernel|Switch)' -benchmem ./internal/exec/
var benchImage = []isa.Instr{
	{Op: isa.ADD, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
	{Op: isa.ADDI, Dst: isa.R(4), Src1: isa.R(3), Imm: 17},
	{Op: isa.XOR, Dst: isa.R(5), Src1: isa.R(4), Src2: isa.R(1)},
	{Op: isa.CMPLT, Dst: isa.R(6), Src1: isa.R(5), Src2: isa.R(2)},
	{Op: isa.MUL, Dst: isa.R(7), Src1: isa.R(4), Src2: isa.R(3)},
	{Op: isa.SHR, Dst: isa.R(8), Src1: isa.R(7), Src2: isa.R(2)},
	{Op: isa.FADD, Dst: isa.F(2), Src1: isa.F(0), Src2: isa.F(1)},
	{Op: isa.LI, Dst: isa.R(9), Imm: -5},
	{Op: isa.AND, Dst: isa.R(10), Src1: isa.R(9), Src2: isa.R(5)},
	{Op: isa.BR, Src1: isa.R(6), Target: 0},
}

func benchState() *State {
	st := NewState(mem.New(), 0)
	st.Regs[1], st.Regs[2] = 1234, 3
	st.SetF(isa.F(0), 1.5)
	st.SetF(isa.F(1), -2.25)
	return st
}

func BenchmarkStepSwitch(b *testing.B) {
	st := benchState()
	n := len(benchImage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := i % n
		st.PC = pc
		if _, err := Step(st, &benchImage[pc], false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepKernel(b *testing.B) {
	prog, err := CompileProgram(benchImage)
	if err != nil {
		b.Fatal(err)
	}
	kernels := prog.Kernels
	st := benchState()
	n := len(benchImage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := i % n
		st.PC = pc
		if _, err := kernels[pc](st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepFused(b *testing.B) {
	// The fused form of the image's pure prefix (everything before the
	// BR), amortized per instruction for comparability with the two
	// per-instruction engines.
	prog, err := CompileProgram(benchImage)
	if err != nil {
		b.Fatal(err)
	}
	n := prog.FusedLen(0)
	if n == 0 {
		b.Fatal("bench image must start with a fusable run")
	}
	st := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		st.PC = 0
		prog.RunFused(0, st)
	}
}
