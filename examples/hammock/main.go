// Figure 1 demo: the same hammock shape under the three kinds of
// conditional forward branch, showing which transformation handles each
// quadrant of (bias, predictability):
//
//	highly biased + predictable      -> superblock-style speculation
//	low bias + UNpredictable         -> predication (if-conversion)
//	low bias + predictable           -> the Decomposed Branch Transformation
//	                                    (the paper's contribution)
//
// Speculation and decomposition run and are timed. Predication is the
// prior art the paper sets its idea against, and this repository has no
// if-conversion pass: the third column only classifies the branch as a
// predication candidate, one too unbiased to speculate on and with no
// predictability beyond its bias for the decomposition to exploit.
package main

import (
	"fmt"
	"log"

	"vanguard/internal/core"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
)

const (
	scriptBase = uint64(1 << 20)
	dataBase   = uint64(1 << 22)
	outBase    = uint64(1 << 24)
	iters      = 4000
)

// kind selects how the branch outcome stream is generated.
type kind int

const (
	biased kind = iota
	unpredictable
	predictableUnbiased
)

func (k kind) String() string {
	switch k {
	case biased:
		return "highly biased, predictable   "
	case unpredictable:
		return "unbiased, unpredictable      "
	default:
		return "unbiased, PREDICTABLE        "
	}
}

// buildHammock is the same CFG for all three kinds; only the script
// contents differ.
func buildHammock() *ir.Program {
	f := &ir.Func{Name: "hammock"}
	init := f.AddBlock("init")
	head := f.AddBlock("A")
	b := f.AddBlock("B")
	c := f.AddBlock("C")
	merge := f.AddBlock("M")
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")
	r := isa.R
	f.Emit(init,
		ir.Li(r(0), 0), ir.Li(r(1), 0), ir.Li(r(2), iters),
		ir.Li(r(3), int64(scriptBase)), ir.Li(r(4), int64(dataBase)),
		ir.Li(r(5), int64(outBase)), ir.Li(r(10), 0),
	)
	f.Emit(head,
		ir.Muli(r(6), r(1), 8),
		ir.Add(r(6), r(6), r(3)),
		ir.Ld(r(7), r(6), 0),
		ir.Cmp(isa.CMPNE, r(8), r(7), r(0)),
		ir.BrID(r(8), c, 1),
	)
	f.Emit(b,
		ir.Muli(r(9), r(1), 8),
		ir.Andi(r(9), r(9), (1<<13-1)&^7),
		ir.Add(r(9), r(9), r(4)),
		ir.Ld(r(11), r(9), 0),
		ir.Ld(r(12), r(9), 8),
		ir.Add(r(10), r(10), r(11)),
		ir.Add(r(10), r(10), r(12)),
		ir.Jmp(merge),
	)
	f.Emit(c,
		ir.Muli(r(9), r(1), 8),
		ir.Andi(r(9), r(9), (1<<13-1)&^7),
		ir.Add(r(9), r(9), r(4)),
		ir.Ld(r(11), r(9), 16),
		ir.Sub(r(10), r(10), r(11)),
	)
	f.Emit(merge, ir.St(r(5), 0, r(10)))
	f.Emit(latch,
		ir.Addi(r(1), r(1), 1),
		ir.Cmp(isa.CMPLT, r(8), r(1), r(2)),
		ir.BrID(r(8), head, 2),
	)
	f.Emit(done, ir.St(r(5), 16, r(10)), ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}
}

func initMemory(k kind) *mem.Memory {
	m := mem.New()
	state := uint64(7)
	next := func() uint64 { state ^= state << 13; state ^= state >> 7; state ^= state << 17; return state }
	inTaken, left := true, 60
	for i := 0; i < iters; i++ {
		var v bool
		switch k {
		case biased:
			v = next()%33 == 0 // ~3% taken
		case unpredictable:
			v = next()%2 == 0 // coin flip
		default: // regime-structured: ~55/45 but ~92% predictable
			if left == 0 {
				inTaken = !inTaken
				left = 50 + int(next()%60)
			}
			v = inTaken
			if next()%12 == 0 {
				v = !v
			}
			left--
		}
		var w int64
		if v {
			w = 1
		}
		m.MustStore(scriptBase+uint64(i)*8, w)
	}
	for off := uint64(0); off < 1<<13+64; off += 8 {
		m.MustStore(dataBase+off, int64(off%31))
	}
	return m
}

func main() {
	fmt.Println("Figure 1: which transformation fits which branch?")
	fmt.Printf("%-30s %6s %6s | %-10s %-10s %-10s %9s\n",
		"branch character", "bias", "pred", "superblock", "decompose", "predicate", "speedup")
	spec, opt := core.DefaultSpeculateOptions(), core.DefaultOptions()
	for _, k := range []kind{biased, unpredictable, predictableUnbiased} {
		prog := buildHammock()
		memory := initMemory(k)
		prof, err := profile.CollectDefault(ir.MustLinearize(prog), memory.Clone(), 10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		br := prof.ByID[1]

		baseline := prog.Clone()
		exp := prog.Clone()
		// Both binaries get the classic biased-branch speculation...
		srep, err := core.SpeculateBiasedBranches(exp, prof, spec)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := core.SpeculateBiasedBranches(baseline, prof, spec); err != nil {
			log.Fatal(err)
		}
		// ...and only the experimental one gets the decomposition.
		drep, err := core.Transform(exp, prof, opt)
		if err != nil {
			log.Fatal(err)
		}
		predicate := br.Bias() < spec.BiasThreshold && br.Predictability()-br.Bias() < opt.MinGap
		sched.Program(baseline, sched.DefaultModel(4))
		sched.Program(exp, sched.DefaultModel(4))

		run := func(p *ir.Program) int64 {
			st, err := pipeline.New(ir.MustLinearize(p), memory.Clone(), pipeline.DefaultConfig(4)).Run()
			if err != nil {
				log.Fatal(err)
			}
			return st.Cycles
		}
		bc, ec := run(baseline), run(exp)
		mark := func(b bool, yes string) string {
			if b {
				return yes
			}
			return "-"
		}
		fmt.Printf("%-30s %6.2f %6.2f | %-10s %-10s %-10s %+8.2f%%\n",
			k, br.Bias(), br.Predictability(),
			mark(len(srep.Speculated) > 0, "yes"), mark(len(drep.Converted) > 0, "yes"),
			mark(predicate, "candidate"),
			(float64(bc)/float64(ec)-1)*100)
	}
	fmt.Println("\neach quadrant of Figure 1 gets its own transformation: superblock")
	fmt.Println("speculation covers the biased branch, the unpredictable one is left")
	fmt.Println("to predication (classified here, not run), and the paper's")
	fmt.Println("decomposition unlocks the predictable-but-unbiased one.")
}
