package ir

import (
	"fmt"

	"vanguard/internal/isa"
)

// CodeBase is the byte address where the instruction image is placed; the
// I-cache model fetches from CodeBase + pc*isa.InstrBytes. It is disjoint
// from the data region workloads use.
const CodeBase uint64 = 1 << 30

// Image is the linearized (flat) form of a program: the executable the
// simulators run. Instruction Target fields hold absolute PCs
// (instruction indices, not byte addresses).
type Image struct {
	Instrs      []isa.Instr
	Entry       int     // PC of the first instruction of Funcs[0]
	FuncEntries []int   // PC of each function's entry
	BlockPCs    [][]int // per function, the start PC of each block
}

// PCAddr returns the byte address of the instruction at pc.
func (im *Image) PCAddr(pc int) uint64 { return CodeBase + uint64(pc)*isa.InstrBytes }

// Linearize lays the program out into an Image. The program must Verify.
func Linearize(p *Program) (*Image, error) {
	if err := p.Verify(); err != nil {
		return nil, err
	}
	im := &Image{
		FuncEntries: make([]int, len(p.Funcs)),
		BlockPCs:    make([][]int, len(p.Funcs)),
	}
	// Pass 1: assign PCs.
	pc := 0
	for fi, f := range p.Funcs {
		im.FuncEntries[fi] = pc
		im.BlockPCs[fi] = make([]int, len(f.Blocks))
		for bi, b := range f.Blocks {
			im.BlockPCs[fi][bi] = pc
			pc += len(b.Instrs)
		}
	}
	// Pass 2: emit with resolved targets.
	im.Instrs = make([]isa.Instr, 0, pc)
	for fi, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				switch ins.Op {
				case isa.BR, isa.JMP, isa.PREDICT, isa.RESOLVE:
					ins.Target = im.BlockPCs[fi][ins.Target]
				case isa.CALL:
					ins.Target = im.FuncEntries[ins.Target]
				default:
					ins.Target = -1
				}
				im.Instrs = append(im.Instrs, ins)
			}
		}
	}
	im.Entry = im.FuncEntries[0]
	return im, nil
}

// MustLinearize linearizes and panics on verification failure; for use by
// tests and generators that construct known-good programs.
func MustLinearize(p *Program) *Image {
	im, err := Linearize(p)
	if err != nil {
		panic(fmt.Sprintf("ir: %v", err))
	}
	return im
}
