package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/workload"
)

// fastTrain is the TRAIN input of harness.FastOptions, the one every
// CLI's -fast run and bench/ build from.
var fastTrain = workload.Input{Seed: 101, Iters: 800}

type trainBuild struct {
	prog *ir.Program
	prof *profile.Profile
}

var (
	trainMu     sync.Mutex
	trainBuilds = map[string]trainBuild{}
)

// trained returns a benchmark's unscheduled TRAIN program and its
// profile, the inputs of harness.BuildBinaries' speculate and transform
// steps, memoized per benchmark. Callers clone the program before
// editing it.
func trained(tb testing.TB, name string) (*ir.Program, *profile.Profile) {
	tb.Helper()
	trainMu.Lock()
	defer trainMu.Unlock()
	if t, ok := trainBuilds[name]; ok {
		return t.prog, t.prof
	}
	c, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("no workload %q", name)
	}
	p, m := c.Generate(fastTrain)
	prof, err := profile.Collect(ir.MustLinearize(p), m, bpred.NewDefault(), 200_000_000)
	if err != nil {
		tb.Fatalf("%s: profile: %v", name, err)
	}
	trainBuilds[name] = trainBuild{p, prof}
	return p, prof
}

// build runs the two core passes of a build the way
// harness.BuildBinaries does: it speculates base in place, then
// transforms a clone of it. measure wraps each pass (not the clone).
// It returns the transformed clone and the number of edits, speculated
// plus converted branches.
func build(tb testing.TB, base *ir.Program, prof *profile.Profile, measure func(func())) (exp *ir.Program, edits int) {
	tb.Helper()
	var srep *SpeculateReport
	var rep *Report
	var err error
	if measure(func() { srep, err = SpeculateBiasedBranches(base, prof, DefaultSpeculateOptions()) }); err != nil {
		tb.Fatal(err)
	}
	exp = base.Clone()
	if measure(func() { rep, err = Transform(exp, prof, DefaultOptions()) }); err != nil {
		tb.Fatal(err)
	}
	return exp, len(srep.Speculated) + len(rep.Converted)
}

// TestBuildAllocs pins that an edit costs its region, not its function:
// speculation plus transformation of the two largest replicated images
// (gobmk, gcc) stays under 150 heap allocations per edit, clones
// excluded. Rebuilding liveness or copying every block per edit costs
// thousands.
func TestBuildAllocs(t *testing.T) {
	const perEdit = 150
	for _, name := range []string{"gobmk", "gcc"} {
		p, prof := trained(t, name)
		var mallocs uint64
		_, edits := build(t, p.Clone(), prof, func(pass func()) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		})
		if edits == 0 {
			t.Fatalf("%s: no edits", name)
		}
		t.Logf("%s: %d edits, %d allocations (%.1f per edit)", name, edits, mallocs, float64(mallocs)/float64(edits))
		if mallocs > uint64(perEdit*edits) {
			t.Errorf("%s: %d allocations for %d edits (%.1f per edit), want at most %d per edit",
				name, mallocs, edits, float64(mallocs)/float64(edits), perEdit)
		}
	}
}

// BenchmarkBuild times the build of one benchmark's two binaries after
// profiling: clone and speculate the baseline, clone and transform the
// experimental binary, schedule both, as harness.BuildBinaries does.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"gobmk", "gcc"} {
		b.Run(name, func(b *testing.B) {
			p, prof := trained(b, name)
			model := sched.DefaultModel(4)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				base := p.Clone()
				exp, _ := build(b, base, prof, func(pass func()) { pass() })
				sched.Program(base, model)
				sched.Program(exp, model)
			}
		})
	}
}

// TestMaintainedLivenessExact runs speculation, then Transform on a
// clone of the speculated program, over every int2006 and fp2006 TRAIN
// program with the pass's test hook set: after every hoist and
// decomposition, the liveness the pass maintains must equal
// ir.ComputeLiveness of the edited function, and its predecessor counts
// Func.NumPreds.
func TestMaintainedLivenessExact(t *testing.T) {
	var names []string
	for _, suite := range []string{"int2006", "fp2006"} {
		for _, c := range workload.Suite(suite) {
			names = append(names, c.Name)
		}
	}
	// A loop of decomposable hammocks edits one function many times, each
	// decomposition shifting the blocks of the ones still to come.
	names = append(names, "hammock-chain")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var p *ir.Program
			var prof *profile.Profile
			if name == "hammock-chain" {
				p, prof = hammockChain(6)
			} else {
				p, prof = trained(t, name)
			}
			checks := 0
			check := func(f *ir.Func, lv *ir.Liveness) {
				checks++
				want := ir.ComputeLiveness(f)
				if len(lv.In) != len(f.Blocks) || len(lv.Out) != len(f.Blocks) {
					t.Fatalf("edit %d: liveness covers %d/%d blocks, func has %d", checks, len(lv.In), len(lv.Out), len(f.Blocks))
				}
				for i := range f.Blocks {
					if lv.In[i] != want.In[i] || lv.Out[i] != want.Out[i] {
						t.Fatalf("edit %d, block %d (%s): maintained in %v out %v, recomputed in %v out %v",
							checks, i, f.Blocks[i].Label, lv.In[i], lv.Out[i], want.In[i], want.Out[i])
					}
					if got, want := lv.NumPreds(i), f.NumPreds(i); got != want {
						t.Fatalf("edit %d, block %d (%s): maintained %d predecessors, func has %d",
							checks, i, f.Blocks[i].Label, got, want)
					}
				}
			}
			run := func(q *ir.Program) *pass {
				ps := newPass(q)
				ps.checkLive = check
				return ps
			}
			base := p.Clone()
			srep, err := run(base).speculate(prof, DefaultSpeculateOptions())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(base.Clone()).transform(prof, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			edits := len(srep.Speculated) + len(rep.Converted)
			if name == "hammock-chain" && len(rep.Converted) == 0 {
				t.Fatalf("no hammock decomposed: %v", rep.Skipped)
			}
			if checks != edits || edits == 0 {
				t.Fatalf("%d liveness checks for %d edits (%d hoists, %d decompositions)",
					checks, edits, len(srep.Speculated), len(rep.Converted))
			}
			t.Logf("%d hoists, %d decompositions", len(srep.Speculated), len(rep.Converted))
		})
	}
}

// hammockChain builds a loop over n hammocks and a profile that marks
// each branch hot, unbiased and predictable, so Transform decomposes
// them all in one function.
func hammockChain(n int) (*ir.Program, *profile.Profile) {
	prof := &profile.Profile{ByID: map[int]*profile.Branch{}}
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	f.Emit(init,
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(2), 50),
		ir.Li(isa.R(3), 0),
		ir.Li(isa.R(4), 8),
	)
	head := init + 1
	for k := range n {
		id := k + 1
		a := f.AddBlock(fmt.Sprintf("A%d", k))
		b := f.AddBlock(fmt.Sprintf("B%d", k))
		c := f.AddBlock(fmt.Sprintf("C%d", k))
		f.Emit(a,
			ir.Ld(isa.R(6), isa.R(1), int64(8*k)),
			ir.Cmp(isa.CMPLT, isa.R(7), isa.R(6), isa.R(2)),
			ir.BrID(isa.R(7), c, id),
		)
		f.Emit(b, ir.Ld(isa.R(8), isa.R(1), 8), ir.Addi(isa.R(9), isa.R(8), int64(k)), ir.Jmp(c+1))
		f.Emit(c, ir.Ld(isa.R(8), isa.R(1), 16), ir.Muli(isa.R(10), isa.R(8), 3))
		prof.ByID[id] = &profile.Branch{ID: id, Forward: true, Execs: 10000, Taken: 5000, Correct: 9000}
	}
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")
	f.Emit(latch,
		ir.St(isa.R(1), 64, isa.R(8)),
		ir.St(isa.R(1), 72, isa.R(9)),
		ir.St(isa.R(1), 80, isa.R(10)),
		ir.Addi(isa.R(3), isa.R(3), 1),
		ir.Cmp(isa.CMPLT, isa.R(11), isa.R(3), isa.R(4)),
		ir.Br(isa.R(11), head),
	)
	f.Emit(done, ir.Halt())
	return &ir.Program{Funcs: []*ir.Func{f}}, prof
}
