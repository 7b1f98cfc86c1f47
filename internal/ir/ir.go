// Package ir provides the compiler intermediate representation the
// Decomposed Branch Transformation operates on: functions of basic blocks
// over the vanguard ISA, with an explicit control-flow graph, liveness
// analysis, and a linearizer that lays blocks out into a flat instruction
// image for the simulators.
//
// Layout convention: the block slice order IS the code layout order. A
// block whose last instruction is not a terminator, or whose terminator is
// conditional (BR, RESOLVE, PREDICT) or a CALL, falls through to the next
// block in the slice. Instruction Target fields hold block indices within
// the same function, except CALL whose Target is a function index within
// the program.
package ir

import (
	"fmt"
	"strings"

	"vanguard/internal/isa"
)

// Block is a basic block: straight-line code where only the final
// instruction may transfer control.
type Block struct {
	Label  string
	Instrs []isa.Instr
}

// Terminator returns the block's final instruction and whether it is a
// control-flow terminator.
func (b *Block) Terminator() (isa.Instr, bool) {
	if len(b.Instrs) == 0 {
		return isa.Instr{}, false
	}
	last := b.Instrs[len(b.Instrs)-1]
	return last, last.IsTerminator()
}

// Func is a single function.
type Func struct {
	Name   string
	Blocks []*Block
}

// AddBlock appends an empty block and returns its index.
func (f *Func) AddBlock(label string) int {
	f.Blocks = append(f.Blocks, &Block{Label: label})
	return len(f.Blocks) - 1
}

// Emit appends an instruction to block b.
func (f *Func) Emit(b int, ins ...isa.Instr) {
	f.Blocks[b].Instrs = append(f.Blocks[b].Instrs, ins...)
}

// NumInstrs returns the static instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Succs returns the successor block indices of block i in s[:n], in
// order (taken target first for conditional control flow, then
// fall-through). RET and HALT have no successors; CALL's successor is its
// fall-through (the call edge is interprocedural and not part of the
// function CFG). It does not allocate.
func (f *Func) Succs(i int) (s [2]int, n int) {
	term, ok := f.Blocks[i].Terminator()
	switch {
	case !ok || term.Op == isa.CALL: // plain fall-through
	case term.Op == isa.JMP:
		return [2]int{term.Target}, 1
	case term.Op == isa.BR || term.Op == isa.RESOLVE || term.Op == isa.PREDICT:
		s[0], n = term.Target, 1
	default: // RET, HALT
		return s, 0
	}
	if i+1 < len(f.Blocks) {
		s[n] = i + 1
		n++
	}
	return s, n
}

// NumPreds returns the number of CFG edges into block i. It scans every
// block's terminator and does not allocate; a pass that edits the
// function reads the count its maintained Liveness keeps instead.
func (f *Func) NumPreds(i int) int {
	k := 0
	for j := range f.Blocks {
		s, n := f.Succs(j)
		for _, t := range s[:n] {
			if t == i {
				k++
			}
		}
	}
	return k
}

// rpoScratch holds the storage of an iterative depth-first search, so a
// caller that orders the same function repeatedly reuses it.
type rpoScratch struct {
	out   []int
	seen  []bool
	stack []rpoFrame
}

// rpoFrame is a depth-first search frame: a block and how many of its
// successors have been visited.
type rpoFrame struct{ b, k int }

// order returns the blocks 0..n-1 in reverse postorder from block 0 over
// succ, then the blocks unreachable from 0 in index order. The result
// aliases the scratch storage until the next call.
func (sc *rpoScratch) order(n int, succ func(int) ([2]int, int)) []int {
	sc.out = sc.out[:0]
	sc.seen = append(sc.seen[:0], make([]bool, n)...)
	if n > 0 {
		sc.seen[0] = true
		sc.stack = append(sc.stack[:0], rpoFrame{b: 0})
		for len(sc.stack) > 0 {
			top := &sc.stack[len(sc.stack)-1]
			s, ns := succ(top.b)
			if top.k < ns {
				next := s[top.k]
				top.k++
				if !sc.seen[next] {
					sc.seen[next] = true
					sc.stack = append(sc.stack, rpoFrame{b: next})
				}
				continue
			}
			sc.out = append(sc.out, top.b) // postorder
			sc.stack = sc.stack[:len(sc.stack)-1]
		}
	}
	for i, j := 0, len(sc.out)-1; i < j; i, j = i+1, j-1 {
		sc.out[i], sc.out[j] = sc.out[j], sc.out[i]
	}
	for i, seen := range sc.seen {
		if !seen {
			sc.out = append(sc.out, i)
		}
	}
	return sc.out
}

// Clone returns a deep copy of the function.
func (f *Func) Clone() *Func {
	c := &Func{Name: f.Name, Blocks: make([]*Block, len(f.Blocks))}
	for i, b := range f.Blocks {
		nb := &Block{Label: b.Label, Instrs: make([]isa.Instr, len(b.Instrs))}
		copy(nb.Instrs, b.Instrs)
		c.Blocks[i] = nb
	}
	return c
}

// String disassembles the function.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for i, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s (block %d):\n", b.Label, i)
		for _, ins := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", ins)
		}
	}
	return sb.String()
}

// Program is a whole program: a set of functions, entered at Funcs[0].
type Program struct {
	Funcs []*Func
}

// AddFunc appends a function and returns its index.
func (p *Program) AddFunc(f *Func) int {
	p.Funcs = append(p.Funcs, f)
	return len(p.Funcs) - 1
}

// NumInstrs returns the static instruction count of the program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	c := &Program{Funcs: make([]*Func, len(p.Funcs))}
	for i, f := range p.Funcs {
		c.Funcs[i] = f.Clone()
	}
	return c
}

// String disassembles the program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// Verify checks structural invariants: non-empty entry function, in-range
// block and function targets, terminators only in final position, and
// that the final block of each function does not fall off the end.
func (p *Program) Verify() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("ir: program has no functions")
	}
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: func %q has no blocks", f.Name)
		}
		for bi, b := range f.Blocks {
			for ii, ins := range b.Instrs {
				if ins.IsTerminator() && ii != len(b.Instrs)-1 {
					return fmt.Errorf("ir: %s/%s: terminator %v not at block end", f.Name, b.Label, ins)
				}
				switch ins.Op {
				case isa.CALL:
					if ins.Target < 0 || ins.Target >= len(p.Funcs) {
						return fmt.Errorf("ir: %s/%s: call target %d out of range", f.Name, b.Label, ins.Target)
					}
				case isa.BR, isa.JMP, isa.PREDICT, isa.RESOLVE:
					if ins.Target < 0 || ins.Target >= len(f.Blocks) {
						return fmt.Errorf("ir: %s/%s: branch target %d out of range", f.Name, b.Label, ins.Target)
					}
				}
			}
			term, isTerm := b.Terminator()
			fallsThrough := !isTerm || term.Op == isa.BR || term.Op == isa.RESOLVE ||
				term.Op == isa.PREDICT || term.Op == isa.CALL
			if fallsThrough && bi == len(f.Blocks)-1 {
				return fmt.Errorf("ir: %s/%s: final block falls off the end of the function", f.Name, b.Label)
			}
		}
	}
	return nil
}
