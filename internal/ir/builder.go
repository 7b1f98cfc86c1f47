package ir

import "vanguard/internal/isa"

// Instruction constructors: thin, readable sugar over isa.Instr literals,
// used heavily by the workload generators, examples, and tests.

// Op3 builds a three-operand ALU instruction.
func Op3(op isa.Op, d, s1, s2 isa.Reg) isa.Instr {
	return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2, Target: -1}
}

// Add builds d = s1 + s2.
func Add(d, s1, s2 isa.Reg) isa.Instr { return Op3(isa.ADD, d, s1, s2) }

// Sub builds d = s1 - s2.
func Sub(d, s1, s2 isa.Reg) isa.Instr { return Op3(isa.SUB, d, s1, s2) }

// Mul builds d = s1 * s2.
func Mul(d, s1, s2 isa.Reg) isa.Instr { return Op3(isa.MUL, d, s1, s2) }

// Xor builds d = s1 ^ s2.
func Xor(d, s1, s2 isa.Reg) isa.Instr { return Op3(isa.XOR, d, s1, s2) }

// Addi builds d = s1 + imm.
func Addi(d, s1 isa.Reg, imm int64) isa.Instr {
	return isa.Instr{Op: isa.ADDI, Dst: d, Src1: s1, Imm: imm, Target: -1}
}

// Muli builds d = s1 * imm.
func Muli(d, s1 isa.Reg, imm int64) isa.Instr {
	return isa.Instr{Op: isa.MULI, Dst: d, Src1: s1, Imm: imm, Target: -1}
}

// Andi builds d = s1 & imm.
func Andi(d, s1 isa.Reg, imm int64) isa.Instr {
	return isa.Instr{Op: isa.ANDI, Dst: d, Src1: s1, Imm: imm, Target: -1}
}

// Li builds d = imm.
func Li(d isa.Reg, imm int64) isa.Instr {
	return isa.Instr{Op: isa.LI, Dst: d, Imm: imm, Target: -1}
}

// Mov builds d = s.
func Mov(d, s isa.Reg) isa.Instr {
	return isa.Instr{Op: isa.MOV, Dst: d, Src1: s, Target: -1}
}

// Cmp builds d = s1 <op> s2 for a comparison opcode.
func Cmp(op isa.Op, d, s1, s2 isa.Reg) isa.Instr { return Op3(op, d, s1, s2) }

// Fop builds a three-operand FP instruction.
func Fop(op isa.Op, d, s1, s2 isa.Reg) isa.Instr { return Op3(op, d, s1, s2) }

// Ld builds d = mem[base+off].
func Ld(d, base isa.Reg, off int64) isa.Instr {
	return isa.Instr{Op: isa.LD, Dst: d, Src1: base, Imm: off, Target: -1}
}

// LdSpec builds the non-faulting d = mem[base+off].
func LdSpec(d, base isa.Reg, off int64) isa.Instr {
	return isa.Instr{Op: isa.LDS, Dst: d, Src1: base, Imm: off, Target: -1}
}

// St builds mem[base+off] = v.
func St(base isa.Reg, off int64, v isa.Reg) isa.Instr {
	return isa.Instr{Op: isa.ST, Src1: base, Src2: v, Imm: off, Target: -1}
}

// Br builds a conditional branch to block target, taken when cond != 0.
func Br(cond isa.Reg, target int) isa.Instr {
	return isa.Instr{Op: isa.BR, Src1: cond, Target: target}
}

// BrID builds a conditional branch carrying a static branch ID for the
// profiler and transformation.
func BrID(cond isa.Reg, target, id int) isa.Instr {
	return isa.Instr{Op: isa.BR, Src1: cond, Target: target, BranchID: id}
}

// Jmp builds an unconditional jump to block target.
func Jmp(target int) isa.Instr { return isa.Instr{Op: isa.JMP, Target: target} }

// Call builds a call to function index target.
func Call(target int) isa.Instr { return isa.Instr{Op: isa.CALL, Target: target} }

// Ret builds a return through the link register r63.
func Ret() isa.Instr {
	return isa.Instr{Op: isa.RET, Src1: isa.R(isa.NumIntRegs - 1), Target: -1}
}

// Halt stops the machine.
func Halt() isa.Instr { return isa.Instr{Op: isa.HALT, Target: -1} }

// Nop does nothing for a cycle slot.
func Nop() isa.Instr { return isa.Instr{Op: isa.NOP, Target: -1} }

// Predict builds the decomposed-branch prediction instruction.
func Predict(target, id int) isa.Instr {
	return isa.Instr{Op: isa.PREDICT, Target: target, BranchID: id}
}

// Resolve builds the decomposed-branch resolution instruction: control
// transfers to target iff (cond != 0) != expect, i.e. iff the prediction
// this path embodies was wrong.
func Resolve(cond isa.Reg, expect bool, target, id int) isa.Instr {
	return isa.Instr{Op: isa.RESOLVE, Src1: cond, Expect: expect, Target: target, BranchID: id}
}
