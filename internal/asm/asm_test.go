package asm

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

const sample = `
; sum the first n integers, with a decomposed branch for flavor
func main
init:
	li      r1, 0          ; i
	li      r2, 10         ; n
	li      r3, 4096       ; out
	li      r10, 0         ; sum
loop:
	add     r10, r10, r1
	addi    r1, r1, 1
	cmplt   r4, r1, r2
	br      r4, loop #3
done:
	st      0(r3), r10
	call    helper
	halt
endfunc

func helper
entry:
	addi    r11, r11, 1
	ret
endfunc
`

func TestParseAndRun(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 || p.Funcs[0].Name != "main" || p.Funcs[1].Name != "helper" {
		t.Fatalf("functions parsed wrong: %+v", p.Funcs)
	}
	m := mem.New()
	if _, _, err := interp.Run(ir.MustLinearize(p), m, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(4096)
	if v != 45 {
		t.Errorf("assembled program computed %d, want 45", v)
	}
}

func TestParseBranchID(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, b := range p.Funcs[0].Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == isa.BR && ins.BranchID == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("branch ID #3 not attached")
	}
}

func TestParseDecomposedOps(t *testing.T) {
	src := `
func main
a:
	li      r1, 1
	predict ca #9
ba:
	cmpne   r2, r1, r0
	resolve r2, nt, corr #9
bp:
	jmp end
ca:
	cmpne   r2, r1, r0
	resolve r2, t, corr2 #9
cp:
	jmp end
corr:
	jmp cp
corr2:
	jmp bp
end:
	halt
endfunc
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var predicts, resolves int
	var expects []bool
	for _, b := range p.Funcs[0].Blocks {
		for _, ins := range b.Instrs {
			switch ins.Op {
			case isa.PREDICT:
				predicts++
			case isa.RESOLVE:
				resolves++
				expects = append(expects, ins.Expect)
			}
		}
	}
	if predicts != 1 || resolves != 2 {
		t.Fatalf("predicts=%d resolves=%d", predicts, resolves)
	}
	if len(expects) != 2 || expects[0] || !expects[1] {
		t.Errorf("resolve expectations wrong: %v", expects)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"outside func", "nop\n", "outside func"},
		{"missing endfunc", "func f\na:\n\thalt\n", "missing endfunc"},
		{"bad mnemonic", "func f\na:\n\tfrob r1, r2\nendfunc\n", "unknown mnemonic"},
		{"bad register", "func f\na:\n\tli r99, 0\nendfunc\n", "out of range"},
		{"bad operand count", "func f\na:\n\tadd r1, r2\nendfunc\n", "wants 3 operands"},
		{"undefined label", "func f\na:\n\tjmp nowhere\nendfunc\n", "undefined target"},
		{"duplicate label", "func f\na:\n\tnop\na:\n\thalt\nendfunc\n", "duplicate label"},
		{"duplicate func", "func f\na:\n\thalt\nendfunc\nfunc f\nb:\n\thalt\nendfunc\n", "duplicate function"},
		{"bad resolve dir", "func f\na:\n\tresolve r1, x, a\nendfunc\n", "t|nt"},
		{"bad memory operand", "func f\na:\n\tld r1, r2\nendfunc\n", "bad memory operand"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := Parse("func f\na:\n\tnop\n\tfrob\nendfunc\n")
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 4 {
		t.Errorf("want ParseError at line 4, got %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p1, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(p1)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("formatted output does not re-parse: %v\n%s", err, text)
	}
	// Behavioural equivalence: run both.
	m1, m2 := mem.New(), mem.New()
	if _, _, err := interp.Run(ir.MustLinearize(p1), m1, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := interp.Run(ir.MustLinearize(p2), m2, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) {
		t.Error("round-tripped program behaves differently")
	}
}

// TestRandomRoundTrip formats and re-parses randomly generated programs,
// checking structural identity (same ops, targets, operands).
func TestRandomRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := &ir.Func{Name: "main"}
		a := f.AddBlock("a")
		b := f.AddBlock("b")
		end := f.AddBlock("end")
		ops := []isa.Instr{
			ir.Add(isa.R(1), isa.R(2), isa.R(3)),
			ir.Addi(isa.R(4), isa.R(5), int64(r.Intn(100)-50)),
			ir.Li(isa.F(2), int64(r.Intn(1000))),
			ir.Ld(isa.R(6), isa.R(7), int64(r.Intn(10)*8)),
			ir.LdSpec(isa.R(8), isa.R(7), 16),
			ir.St(isa.R(7), 8, isa.R(6)),
			ir.Fop(isa.FADD, isa.F(1), isa.F(2), isa.F(3)),
			ir.Mov(isa.R(9), isa.R(10)),
			{Op: isa.CMOV, Dst: isa.R(1), Src1: isa.R(4), Src2: isa.R(6), Target: -1},
			ir.Cmp(isa.CMPGE, isa.R(11), isa.R(1), isa.R(2)),
		}
		for i := 0; i < 2+r.Intn(6); i++ {
			f.Emit(a, ops[r.Intn(len(ops))])
		}
		f.Emit(a, ir.BrID(isa.R(11), end, r.Intn(50)+1))
		f.Emit(b, ir.Nop(), ir.Jmp(end))
		f.Emit(end, ir.Halt())
		p1 := &ir.Program{Funcs: []*ir.Func{f}}

		p2, err := Parse(Format(p1))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, Format(p1))
		}
		if len(p2.Funcs) != 1 || len(p2.Funcs[0].Blocks) != 3 {
			t.Fatalf("seed %d: structure lost", seed)
		}
		for bi, blk := range p1.Funcs[0].Blocks {
			got := p2.Funcs[0].Blocks[bi].Instrs
			if len(got) != len(blk.Instrs) {
				t.Fatalf("seed %d block %d: %d instrs, want %d", seed, bi, len(got), len(blk.Instrs))
			}
			for ii, want := range blk.Instrs {
				g := got[ii]
				if g.Op != want.Op || g.Dst != want.Dst || g.Src1 != want.Src1 ||
					g.Src2 != want.Src2 || g.Imm != want.Imm || g.Target != want.Target ||
					g.BranchID != want.BranchID || g.Expect != want.Expect {
					t.Fatalf("seed %d block %d instr %d: %v != %v", seed, bi, ii, g, want)
				}
			}
		}
	}
}

// TestShippedSamplePrograms parses and runs every .s file shipped under
// examples/asm, guarding them against grammar drift.
func TestShippedSamplePrograms(t *testing.T) {
	files, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil || len(files) == 0 {
		t.Skipf("no sample programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(string(src))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, _, err := interp.Run(ir.MustLinearize(p), mem.New(), interp.Options{MaxInstrs: 10_000_000}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		// Round trip through the formatter too.
		if _, err := Parse(Format(p)); err != nil {
			t.Errorf("%s: formatted output does not re-parse: %v", f, err)
		}
	}
}

// FuzzAsmRoundTrip feeds arbitrary text to the assembler: Parse must
// never panic, and whatever it accepts must re-parse after Format. The
// corpus is seeded with the shipped sample programs.
func FuzzAsmRoundTrip(f *testing.F) {
	files, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(sample)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(p)
		if _, err := Parse(text); err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, text)
		}
	})
}
