// Package isa defines the instruction set of the vanguard machine: a
// RISC-like, word-oriented ISA extended with the paper's decomposed branch
// instructions (PREDICT and RESOLVE).
//
// The ISA is deliberately small but complete enough to express the code the
// Decomposed Branch Transformation manipulates: integer and floating-point
// arithmetic, comparisons into boolean registers, loads and stores (plus a
// non-faulting speculative load for control speculation), conditional and
// unconditional control flow, and calls/returns that exercise a return
// address stack.
package isa

import "fmt"

// Reg names a register in the unified architectural register file.
// Registers [0, NumIntRegs) are integer registers r0..r63; registers
// [NumIntRegs, NumRegs) are floating-point registers f0..f31. Both are
// 64 bits wide; FP registers hold IEEE-754 bit patterns.
type Reg uint8

// Register file dimensions.
const (
	NumIntRegs = 64
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// NoReg marks an unused register operand.
	NoReg Reg = 255
)

// R returns the n-th integer register.
func R(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register r%d out of range", n))
	}
	return Reg(n)
}

// F returns the n-th floating-point register.
func F(n int) Reg {
	if n < 0 || n >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register f%d out of range", n))
	}
	return Reg(NumIntRegs + n)
}

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r != NoReg && r >= NumIntRegs }

// String renders the register in assembly syntax.
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// Op is an opcode.
type Op uint8

// Opcodes. Three-operand ops read Src1/Src2 and write Dst; immediates use
// the Imm field. Control-flow targets are symbolic block references in the
// IR and resolved to instruction PCs by the linearizer.
const (
	NOP Op = iota

	// Integer ALU.
	ADD  // Dst = Src1 + Src2
	SUB  // Dst = Src1 - Src2
	MUL  // Dst = Src1 * Src2
	DIV  // Dst = Src1 / Src2 (0 divisor -> 0, poison-free)
	REM  // Dst = Src1 % Src2 (0 divisor -> 0)
	AND  // Dst = Src1 & Src2
	OR   // Dst = Src1 | Src2
	XOR  // Dst = Src1 ^ Src2
	SHL  // Dst = Src1 << (Src2 & 63)
	SHR  // Dst = Src1 >> (Src2 & 63), arithmetic
	ADDI // Dst = Src1 + Imm
	MULI // Dst = Src1 * Imm
	ANDI // Dst = Src1 & Imm
	LI   // Dst = Imm
	MOV  // Dst = Src1

	// Comparisons (Dst = 1 if true else 0). Signed 64-bit.
	CMPEQ
	CMPNE
	CMPLT
	CMPLE
	CMPGT
	CMPGE

	// Floating point (operands interpreted as float64 bit patterns).
	FADD
	FSUB
	FMUL
	FDIV
	FMOV   // Dst = Src1 (bit copy)
	FCMPLT // Dst(int reg) = 1 if f(Src1) < f(Src2)
	FCMPGE // Dst(int reg) = 1 if f(Src1) >= f(Src2)
	CVTIF  // Dst(fp) = float64(int64(Src1))
	CVTFI  // Dst(int) = int64(f(Src1))

	// Memory. Addresses are byte addresses of aligned 64-bit words,
	// computed as Src1 + Imm.
	LD  // Dst = mem[Src1+Imm]
	LDS // speculative (non-faulting) load: fault -> Dst = 0, poisoned
	ST  // mem[Src1+Imm] = Src2

	// Conditional move (predication support): Dst = Src2 when Src1 != 0,
	// else Dst keeps its value — so Dst is also a source.
	CMOV

	// Control flow.
	BR      // if Src1 != 0 jump to Target, else fall through
	JMP     // unconditional jump to Target
	CALL    // r63 = return PC; jump to Target (pushes RAS)
	RET     // jump to Src1 (pops RAS for prediction)
	HALT    // stop the machine
	PREDICT // decomposed-branch prediction point: predictor-steered jump to Target
	RESOLVE // decomposed-branch resolution: if (Src1 != 0) != Expect, jump to Target
)

var opNames = [...]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", MULI: "muli", ANDI: "andi", LI: "li", MOV: "mov",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt", CMPLE: "cmple",
	CMPGT: "cmpgt", CMPGE: "cmpge",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FMOV: "fmov",
	FCMPLT: "fcmplt", FCMPGE: "fcmpge", CVTIF: "cvtif", CVTFI: "cvtfi",
	LD: "ld", LDS: "ld.s", ST: "st", CMOV: "cmov",
	BR: "br", JMP: "jmp", CALL: "call", RET: "ret", HALT: "halt",
	PREDICT: "predict", RESOLVE: "resolve",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// InstrBytes is the encoded size of every instruction; the ISA uses a
// fixed-width 4-byte encoding, which is what the I-cache model and the
// static-code-size metric (PISCS) account in.
const InstrBytes = 4

// Instr is one machine instruction. The same struct is used at the IR level
// (Target holds a block index within the function) and in the linearized
// image (Target holds an absolute instruction PC).
type Instr struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64

	// Target is the control-flow destination: a block index in IR form,
	// an instruction PC (not byte address) in image form. -1 when unused.
	Target int

	// Expect is the outcome the enclosing predicted path assumed, used by
	// RESOLVE: the resolve fires (jumps to Target) iff the actual condition
	// (Src1 != 0) differs from Expect.
	Expect bool

	// BranchID identifies the static source-level branch a PREDICT/RESOLVE
	// pair (or an original BR) came from; the profiler and the DBB stats
	// key on it. Zero means unassigned.
	BranchID int
}

// Uses returns the registers the instruction reads (up to three; NoReg
// slots are unused). CMOV reads its destination as well, since a false
// condition preserves it.
func (i Instr) Uses() (a, b, c Reg) {
	switch i.Op {
	case NOP, LI, JMP, CALL, HALT, PREDICT:
		return NoReg, NoReg, NoReg
	case ADDI, MULI, ANDI, MOV, FMOV, CVTIF, CVTFI, LD, LDS, BR, RET, RESOLVE:
		return i.Src1, NoReg, NoReg
	case CMOV:
		return i.Src1, i.Src2, i.Dst
	default:
		return i.Src1, i.Src2, NoReg
	}
}

// Def returns the register the instruction writes, or NoReg.
func (i Instr) Def() Reg {
	switch i.Op {
	case NOP, ST, BR, JMP, RET, HALT, PREDICT, RESOLVE:
		return NoReg
	case CALL:
		return R(NumIntRegs - 1) // link register r63
	default:
		return i.Dst
	}
}

// IsControl reports whether the instruction can change the PC.
func (i Instr) IsControl() bool {
	switch i.Op {
	case BR, JMP, CALL, RET, HALT, PREDICT, RESOLVE:
		return true
	}
	return false
}

// IsTerminator reports whether the instruction must end a basic block.
func (i Instr) IsTerminator() bool {
	switch i.Op {
	case BR, JMP, RET, HALT, RESOLVE, PREDICT:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses data memory.
func (i Instr) IsMem() bool { return i.Op == LD || i.Op == LDS || i.Op == ST }

// IsLoad reports whether the instruction is a (possibly speculative) load.
func (i Instr) IsLoad() bool { return i.Op == LD || i.Op == LDS }

// IsStore reports whether the instruction writes data memory.
func (i Instr) IsStore() bool { return i.Op == ST }

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT:
		return i.Op.String()
	case LI:
		return fmt.Sprintf("li %s, %d", i.Dst, i.Imm)
	case ADDI, MULI, ANDI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Dst, i.Src1, i.Imm)
	case MOV, FMOV, CVTIF, CVTFI:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, i.Src1)
	case LD, LDS:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Dst, i.Imm, i.Src1)
	case CMOV:
		return fmt.Sprintf("cmov %s, %s, %s", i.Dst, i.Src1, i.Src2)
	case ST:
		return fmt.Sprintf("st %d(%s), %s", i.Imm, i.Src1, i.Src2)
	case BR:
		return fmt.Sprintf("br %s, @%d", i.Src1, i.Target)
	case JMP, CALL:
		return fmt.Sprintf("%s @%d", i.Op, i.Target)
	case RET:
		return fmt.Sprintf("ret %s", i.Src1)
	case PREDICT:
		return fmt.Sprintf("predict @%d", i.Target)
	case RESOLVE:
		return fmt.Sprintf("resolve %s, expect=%v, @%d", i.Src1, i.Expect, i.Target)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Dst, i.Src1, i.Src2)
	}
}
