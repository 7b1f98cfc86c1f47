package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	if R(0) != 0 || R(63) != 63 {
		t.Fatalf("integer register numbering wrong: R(0)=%d R(63)=%d", R(0), R(63))
	}
	if F(0) != Reg(NumIntRegs) || F(31) != Reg(NumIntRegs+31) {
		t.Fatalf("fp register numbering wrong: F(0)=%d", F(0))
	}
	if R(5).IsFP() {
		t.Error("r5 reported as FP")
	}
	if !F(5).IsFP() {
		t.Error("f5 not reported as FP")
	}
	if NoReg.IsFP() {
		t.Error("NoReg reported as FP")
	}
}

func TestRegConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { R(-1) }, func() { R(NumIntRegs) },
		func() { F(-1) }, func() { F(NumFPRegs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range register")
				}
			}()
			fn()
		}()
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{R(0): "r0", R(63): "r63", F(0): "f0", F(31): "f31", NoReg: "-"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := NOP; op <= RESOLVE; op++ {
		_ = op
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("mnemonic %q used by both %d and %d", s, prev, op)
		}
		seen[s] = op
	}
}

func TestDefUses(t *testing.T) {
	cases := []struct {
		in      Instr
		def     Reg
		a, b, c Reg
		control bool
	}{
		{Instr{Op: ADD, Dst: R(1), Src1: R(2), Src2: R(3)}, R(1), R(2), R(3), NoReg, false},
		{Instr{Op: LI, Dst: R(1), Imm: 7}, R(1), NoReg, NoReg, NoReg, false},
		{Instr{Op: LD, Dst: R(1), Src1: R(2), Imm: 8}, R(1), R(2), NoReg, NoReg, false},
		{Instr{Op: ST, Src1: R(2), Src2: R(3), Imm: 8}, NoReg, R(2), R(3), NoReg, false},
		{Instr{Op: CMOV, Dst: R(1), Src1: R(4), Src2: R(5)}, R(1), R(4), R(5), R(1), false},
		{Instr{Op: BR, Src1: R(4), Target: 2}, NoReg, R(4), NoReg, NoReg, true},
		{Instr{Op: JMP, Target: 2}, NoReg, NoReg, NoReg, NoReg, true},
		{Instr{Op: CALL, Target: 2}, R(63), NoReg, NoReg, NoReg, true},
		{Instr{Op: RET, Src1: R(63)}, NoReg, R(63), NoReg, NoReg, true},
		{Instr{Op: PREDICT, Target: 3}, NoReg, NoReg, NoReg, NoReg, true},
		{Instr{Op: RESOLVE, Src1: R(4), Target: 3}, NoReg, R(4), NoReg, NoReg, true},
		{Instr{Op: HALT}, NoReg, NoReg, NoReg, NoReg, true},
	}
	for _, tc := range cases {
		if got := tc.in.Def(); got != tc.def {
			t.Errorf("%v: Def() = %v, want %v", tc.in, got, tc.def)
		}
		a, b, c := tc.in.Uses()
		if a != tc.a || b != tc.b || c != tc.c {
			t.Errorf("%v: Uses() = %v,%v,%v want %v,%v,%v", tc.in, a, b, c, tc.a, tc.b, tc.c)
		}
		if got := tc.in.IsControl(); got != tc.control {
			t.Errorf("%v: IsControl() = %v, want %v", tc.in, got, tc.control)
		}
	}
}

func TestClassifiers(t *testing.T) {
	ld := Instr{Op: LD, Dst: R(1), Src1: R(2)}
	lds := Instr{Op: LDS, Dst: R(1), Src1: R(2)}
	st := Instr{Op: ST, Src1: R(1), Src2: R(2)}
	br := Instr{Op: BR, Src1: R(1), Target: 0}
	res := Instr{Op: RESOLVE, Src1: R(1), Target: 0}
	pre := Instr{Op: PREDICT, Target: 0}
	add := Instr{Op: ADD, Dst: R(1), Src1: R(2), Src2: R(3)}

	if !ld.IsMem() || !ld.IsLoad() || ld.IsStore() {
		t.Error("LD classification wrong")
	}
	if !lds.IsLoad() || lds.IsStore() {
		t.Error("LDS classification wrong")
	}
	if !st.IsStore() || st.IsLoad() {
		t.Error("ST classification wrong")
	}
	for _, i := range []Instr{br, res, pre} {
		if !i.IsTerminator() {
			t.Errorf("%v must be a terminator", i)
		}
	}
	if add.IsTerminator() || add.IsMem() {
		t.Error("ADD misclassified")
	}
}

func TestUnitAssignment(t *testing.T) {
	if LD.Unit() != FUMem || ST.Unit() != FUMem || LDS.Unit() != FUMem {
		t.Error("memory ops must use the LD/ST unit")
	}
	if FADD.Unit() != FUFP || FDIV.Unit() != FUFP || CVTIF.Unit() != FUFP {
		t.Error("FP ops must use the FP unit")
	}
	for _, op := range []Op{ADD, CMPLT, BR, JMP, PREDICT, RESOLVE, MUL} {
		if op.Unit() != FUInt {
			t.Errorf("%v should execute on INT unit", op)
		}
	}
}

func TestLatencies(t *testing.T) {
	if ADD.Latency() != 1 || BR.Latency() != 1 {
		t.Error("simple ops must be single cycle")
	}
	if MUL.Latency() <= ADD.Latency() {
		t.Error("MUL must be slower than ADD")
	}
	if DIV.Latency() <= MUL.Latency() {
		t.Error("DIV must be slower than MUL")
	}
	if FDIV.Latency() <= FADD.Latency() {
		t.Error("FDIV must be slower than FADD")
	}
	if LD.Latency() != 1 {
		t.Error("load latency here is address generation only; memory time comes from the cache")
	}
}

// Property: Def/Uses never return an out-of-range register for any opcode
// with in-range operand fields, so downstream scoreboards can index arrays
// with them safely.
func TestDefUsesInRange(t *testing.T) {
	f := func(op uint8, d, s1, s2 uint8) bool {
		in := Instr{
			Op:   Op(op % uint8(RESOLVE+1)),
			Dst:  Reg(d % NumRegs),
			Src1: Reg(s1 % NumRegs),
			Src2: Reg(s2 % NumRegs),
		}
		def := in.Def()
		a, b, c := in.Uses()
		ok := func(r Reg) bool { return r == NoReg || int(r) < NumRegs }
		return ok(def) && ok(a) && ok(b) && ok(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: LI, Dst: R(1), Imm: 42}, "li r1, 42"},
		{Instr{Op: ADD, Dst: R(1), Src1: R(2), Src2: R(3)}, "add r1, r2, r3"},
		{Instr{Op: LD, Dst: R(1), Src1: R(2), Imm: 16}, "ld r1, 16(r2)"},
		{Instr{Op: LDS, Dst: R(1), Src1: R(2), Imm: 0}, "ld.s r1, 0(r2)"},
		{Instr{Op: ST, Src1: R(2), Src2: R(1), Imm: 8}, "st 8(r2), r1"},
		{Instr{Op: BR, Src1: R(4), Target: 7}, "br r4, @7"},
		{Instr{Op: PREDICT, Target: 9}, "predict @9"},
		{Instr{Op: RESOLVE, Src1: R(4), Expect: true, Target: 9}, "resolve r4, expect=true, @9"},
		{Instr{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
