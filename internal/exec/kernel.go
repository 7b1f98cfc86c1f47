// Kernel compilation: the predecode-time replacement for Step's 30-way
// opcode switch. At image load every PC is compiled into a fixed
// func(*State) (Result, error) kernel with its operands pre-resolved —
// registers, immediates, control targets, expected outcomes and
// poison-source sets are baked into the closure — so the simulator's
// innermost loop makes one direct-through-pointer call per instruction
// instead of re-decoding the instruction word through a shared,
// megamorphic dispatch site. Step stays as the reference semantics; the
// property tests in kernel_test.go prove every compiled kernel
// byte-equivalent to it on state, result and error for every opcode.
//
// Each pure register op (one that cannot fault, branch, halt or touch
// memory) is defined once, by CompilePure, as its bare register effect;
// its kernel wraps that closure with the PC update and Result. On top of
// per-PC kernels, CompileProgram adds straight-line fusion for the
// functional interpreter: maximal runs of pure ops execute back to back
// through the same closures, with a single PC update and no
// per-instruction Result construction. The pipeline issues a pure op
// through its CompilePure form and every other op through its kernel; it
// never fuses, because fusing would merge issue slots and change timing.
package exec

import (
	"fmt"

	"vanguard/internal/isa"
)

// Dispatch selects how the simulators execute instruction semantics.
type Dispatch uint8

const (
	// DispatchKernels (the default) executes through per-PC compiled
	// kernels; the functional interpreter additionally uses fused
	// straight-line runs.
	DispatchKernels Dispatch = iota
	// DispatchSwitch executes through the reference Step switch.
	DispatchSwitch
)

// String returns the CLI-facing name of the dispatch mode.
func (d Dispatch) String() string {
	if d == DispatchSwitch {
		return "switch"
	}
	return "kernels"
}

// Kernel is one instruction's compiled semantics: calling it executes the
// instruction exactly as Step would at its compile-time PC (including the
// final State.PC update) and returns the same Result and error. A kernel
// for a PREDICT instruction executes the not-taken (fall-through) choice;
// callers steering PREDICT by a live predictor or oracle must use Step.
type Kernel func(*State) (Result, error)

// Compile compiles the instruction at pc into a Kernel. A pure op's
// kernel wraps its CompilePure form, so each register effect is written
// once. Unknown opcodes are rejected here, at compile time, rather than
// surfacing as a step-time error mid-simulation.
func Compile(ins *isa.Instr, pc int) (Kernel, error) {
	next := pc + 1
	if f := CompilePure(ins); f != nil {
		return pureKernel(f, next), nil
	}
	d, s1, s2 := ins.Dst, ins.Src1, ins.Src2
	imm := ins.Imm
	tgt := ins.Target

	switch ins.Op {
	case isa.LD:
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			addr := uint64(st.Regs[s1] + imm)
			res := Result{NextPC: next, IsMem: true, MemAddr: addr}
			v, err := st.Mem.Load(addr)
			if err != nil {
				return res, err
			}
			st.set0(d, v)
			st.PC = next
			return res, nil
		}, nil
	case isa.LDS:
		return func(st *State) (Result, error) {
			addr := uint64(st.Regs[s1] + imm)
			res := Result{NextPC: next, IsMem: true, MemAddr: addr}
			if st.poison1(s1) {
				st.Regs[d] = 0
				st.Poison[d] = true
				res.SuppressedFault = true
				st.PC = next
				return res, nil
			}
			v, err := st.Mem.Load(addr)
			if err != nil {
				st.Regs[d] = 0
				st.Poison[d] = true
				res.SuppressedFault = true
				st.PC = next
				return res, nil
			}
			st.set0(d, v)
			st.PC = next
			return res, nil
		}, nil
	case isa.ST:
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			if st.poison1(s2) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s2}
			}
			addr := uint64(st.Regs[s1] + imm)
			res := Result{NextPC: next, IsMem: true, MemAddr: addr}
			if err := st.Mem.Store(addr, st.Regs[s2]); err != nil {
				return res, err
			}
			st.PC = next
			return res, nil
		}, nil

	case isa.CMOV:
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			res := Result{NextPC: next, CondVal: st.Regs[s1] != 0}
			if res.CondVal {
				st.set1(d, st.Regs[s2], s2)
			}
			st.PC = next
			return res, nil
		}, nil

	case isa.BR:
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			res := Result{NextPC: next, CondVal: st.Regs[s1] != 0}
			if res.CondVal {
				res.Taken = true
				res.NextPC = tgt
			}
			st.PC = res.NextPC
			return res, nil
		}, nil
	case isa.JMP:
		return func(st *State) (Result, error) {
			st.PC = tgt
			return Result{NextPC: tgt, Taken: true}, nil
		}, nil
	case isa.CALL:
		link := isa.R(isa.NumIntRegs - 1)
		ret := int64(pc + 1)
		return func(st *State) (Result, error) {
			st.Regs[link] = ret
			st.Poison[link] = false
			st.PC = tgt
			return Result{NextPC: tgt, Taken: true}, nil
		}, nil
	case isa.RET:
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			res := Result{NextPC: int(st.Regs[s1]), Taken: true}
			st.PC = res.NextPC
			return res, nil
		}, nil
	case isa.HALT:
		return func(st *State) (Result, error) {
			st.Halted = true
			st.PC = pc
			return Result{NextPC: pc, Halted: true}, nil
		}, nil
	case isa.PREDICT:
		// Compiled as the not-taken choice (see the Kernel doc comment):
		// the pipeline consumes PREDICT in the front end and never issues
		// it, and the interpreter routes oracle-steered PREDICTs through
		// Step. Program results are independent of the choice by
		// construction of the decomposed branch transformation.
		return pureKernel(func(*State) {}, next), nil
	case isa.RESOLVE:
		expect := ins.Expect
		return func(st *State) (Result, error) {
			if st.poison1(s1) {
				return Result{NextPC: next}, &PoisonFault{PC: pc, Reg: s1}
			}
			res := Result{NextPC: next, CondVal: st.Regs[s1] != 0}
			if res.CondVal != expect {
				res.Taken = true
				res.NextPC = tgt
			}
			st.PC = res.NextPC
			return res, nil
		}, nil
	}

	return nil, fmt.Errorf("exec: cannot compile unknown opcode %s at pc %d", ins.Op.String(), pc)
}

// pureKernel is the kernel of a pure op: its register effect f, then the
// fall-through PC update.
func pureKernel(f func(*State), next int) Kernel {
	return func(st *State) (Result, error) {
		f(st)
		st.PC = next
		return Result{NextPC: next}, nil
	}
}

// CompilePure compiles a pure register op into its bare register effect:
// no Result, no error, no PC update — the caller (Compile's kernel, a
// fused run, or the pipeline issue stage) owns those. It returns nil for
// every other opcode, and that nil is the fusion legality rule: a pure op
// cannot fault (no poison consumption, no memory), transfer control or
// halt. CMOV is excluded because consuming a poisoned condition is an
// architectural fault.
func CompilePure(ins *isa.Instr) func(*State) {
	d, s1, s2 := ins.Dst, ins.Src1, ins.Src2
	imm := ins.Imm
	switch ins.Op {
	case isa.NOP:
		return func(*State) {}
	case isa.ADD:
		return func(st *State) { st.set2(d, st.Regs[s1]+st.Regs[s2], s1, s2) }
	case isa.SUB:
		return func(st *State) { st.set2(d, st.Regs[s1]-st.Regs[s2], s1, s2) }
	case isa.MUL:
		return func(st *State) { st.set2(d, st.Regs[s1]*st.Regs[s2], s1, s2) }
	case isa.DIV:
		return func(st *State) {
			var v int64
			if dv := st.Regs[s2]; dv != 0 {
				v = st.Regs[s1] / dv
			}
			st.set2(d, v, s1, s2)
		}
	case isa.REM:
		return func(st *State) {
			var v int64
			if dv := st.Regs[s2]; dv != 0 {
				v = st.Regs[s1] % dv
			}
			st.set2(d, v, s1, s2)
		}
	case isa.AND:
		return func(st *State) { st.set2(d, st.Regs[s1]&st.Regs[s2], s1, s2) }
	case isa.OR:
		return func(st *State) { st.set2(d, st.Regs[s1]|st.Regs[s2], s1, s2) }
	case isa.XOR:
		return func(st *State) { st.set2(d, st.Regs[s1]^st.Regs[s2], s1, s2) }
	case isa.SHL:
		return func(st *State) { st.set2(d, st.Regs[s1]<<(uint64(st.Regs[s2])&63), s1, s2) }
	case isa.SHR:
		return func(st *State) { st.set2(d, st.Regs[s1]>>(uint64(st.Regs[s2])&63), s1, s2) }
	case isa.ADDI:
		return func(st *State) { st.set1(d, st.Regs[s1]+imm, s1) }
	case isa.MULI:
		return func(st *State) { st.set1(d, st.Regs[s1]*imm, s1) }
	case isa.ANDI:
		return func(st *State) { st.set1(d, st.Regs[s1]&imm, s1) }
	case isa.LI:
		return func(st *State) { st.set0(d, imm) }
	case isa.MOV, isa.FMOV:
		return func(st *State) { st.set1(d, st.Regs[s1], s1) }
	case isa.CMPEQ:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] == st.Regs[s2]), s1, s2) }
	case isa.CMPNE:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] != st.Regs[s2]), s1, s2) }
	case isa.CMPLT:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] < st.Regs[s2]), s1, s2) }
	case isa.CMPLE:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] <= st.Regs[s2]), s1, s2) }
	case isa.CMPGT:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] > st.Regs[s2]), s1, s2) }
	case isa.CMPGE:
		return func(st *State) { st.set2(d, b2i(st.Regs[s1] >= st.Regs[s2]), s1, s2) }
	case isa.FADD:
		return func(st *State) { st.set2(d, fbits(st.F(s1)+st.F(s2)), s1, s2) }
	case isa.FSUB:
		return func(st *State) { st.set2(d, fbits(st.F(s1)-st.F(s2)), s1, s2) }
	case isa.FMUL:
		return func(st *State) { st.set2(d, fbits(st.F(s1)*st.F(s2)), s1, s2) }
	case isa.FDIV:
		return func(st *State) { st.set2(d, fbits(st.F(s1)/st.F(s2)), s1, s2) }
	case isa.FCMPLT:
		return func(st *State) { st.set2(d, b2i(st.F(s1) < st.F(s2)), s1, s2) }
	case isa.FCMPGE:
		return func(st *State) { st.set2(d, b2i(st.F(s1) >= st.F(s2)), s1, s2) }
	case isa.CVTIF:
		return func(st *State) { st.set1(d, fbits(float64(st.Regs[s1])), s1) }
	case isa.CVTFI:
		return func(st *State) { st.set1(d, int64(st.F(s1)), s1) }
	}
	return nil
}

// Program is the fully compiled form of an image: per-PC kernels plus,
// for every PC inside a straight-line run of fusable instructions, the
// fused suffix of that run. Runs are keyed per PC (the suffix from that
// PC to the run's end), so any control-flow entry point — fall-through,
// branch target, or return address — picks up the longest fused unit
// legal from there; a mid-run PC simply gets a shorter suffix.
type Program struct {
	Kernels []Kernel
	fused   []fusedRun
}

// fusedRun is the fused suffix starting at one PC: n fusable instructions
// executed back to back, then a single PC update to end.
type fusedRun struct {
	n   int32
	end int
	ops []func(*State)
}

// CompileProgram compiles an image into per-PC kernels and fused
// straight-line runs. A pure PC's kernel wraps the same CompilePure
// closure its fused runs call. It fails on any unknown opcode.
func CompileProgram(instrs []isa.Instr) (*Program, error) {
	p := &Program{Kernels: make([]Kernel, len(instrs)), fused: make([]fusedRun, len(instrs))}
	// pure[pc] is the bare effect of each pure instruction; fused
	// suffixes are windows over this one slice, so compiling all suffixes
	// of a run costs one closure per covered PC, not O(n^2).
	pure := make([]func(*State), len(instrs))
	for pc := range instrs {
		if f := CompilePure(&instrs[pc]); f != nil {
			pure[pc] = f
			p.Kernels[pc] = pureKernel(f, pc+1)
			continue
		}
		k, err := Compile(&instrs[pc], pc)
		if err != nil {
			return nil, err
		}
		p.Kernels[pc] = k
	}
	// Scan backward: runLen[pc] = 1 + runLen[pc+1] while pure.
	runLen := 0
	for pc := len(instrs) - 1; pc >= 0; pc-- {
		if pure[pc] == nil {
			runLen = 0
			continue
		}
		runLen++
		// Fusing a single instruction still pays: the interpreter skips
		// the Result construction, error check and per-op stats dispatch.
		p.fused[pc] = fusedRun{n: int32(runLen), end: pc + runLen, ops: pure[pc : pc+runLen]}
	}
	return p, nil
}

// FusedLen returns the number of instructions the fused run at pc covers
// (0 when pc has none, is out of range, or starts a non-fusable
// instruction).
func (p *Program) FusedLen(pc int) int {
	if pc < 0 || pc >= len(p.fused) {
		return 0
	}
	return int(p.fused[pc].n)
}

// RunFused executes the fused run at pc (FusedLen(pc) instructions) and
// leaves st.PC at the first instruction past the run. The caller must
// have checked FusedLen(pc) > 0.
func (p *Program) RunFused(pc int, st *State) {
	fr := &p.fused[pc]
	for _, op := range fr.ops {
		op(st)
	}
	st.PC = fr.end
}
