package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// allocProbeProgram is a long-running loop with data-dependent branches,
// loads and stores — enough activity to exercise the journal, the store
// buffer, the speculation queue and the cache hierarchy every cycle
// without ever finishing during an allocation measurement window.
func allocProbeProgram(iters int64) (*ir.Program, *mem.Memory) {
	const dataBase = int64(1 << 20)
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	head := f.AddBlock("head")
	odd := f.AddBlock("odd")
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")

	f.Emit(init,
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(5), 0),
		ir.Li(isa.R(6), iters),
		ir.Li(isa.R(8), 0),
	)
	f.Emit(head,
		ir.Op3(isa.AND, isa.R(7), isa.R(5), isa.R(5)),
		ir.Addi(isa.R(7), isa.R(7), 1),
		ir.Ld(isa.R(9), isa.R(1), 0),
		ir.Op3(isa.ADD, isa.R(8), isa.R(8), isa.R(9)),
		ir.Op3(isa.AND, isa.R(10), isa.R(5), isa.R(7)),
		ir.BrID(isa.R(10), latch, 1),
	)
	f.Emit(odd,
		ir.St(isa.R(1), 64, isa.R(8)),
	)
	f.Emit(latch,
		ir.Addi(isa.R(5), isa.R(5), 1),
		ir.Cmp(isa.CMPLT, isa.R(4), isa.R(5), isa.R(6)),
		ir.BrID(isa.R(4), head, 2),
	)
	f.Emit(done, ir.Halt())

	m := mem.New()
	m.MustStore(uint64(dataBase), 3)
	return &ir.Program{Funcs: []*ir.Func{f}}, m
}

// TestSteadyStateZeroAllocs is the tentpole's acceptance gate: once a
// machine is warmed up (branch-stat entries created, queue/journal/buffer
// storage grown to steady state), running the cycle loop must not
// allocate at all.
func TestSteadyStateZeroAllocs(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	mach := New(ir.MustLinearize(prog), m, DefaultConfig(4))
	checkSteadyZeroAllocs(t, mach, "steady-state cycle loop")
}

// TestCloneMemoryZeroAllocs: harness machines run over a copy-on-write
// clone of a shared snapshot. The clone copies the probe's data page on
// its first store, once, so the steady-state loop still allocates
// nothing, and the snapshot never sees the machine's stores.
func TestCloneMemoryZeroAllocs(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	// The probe's own store runs only when i&(i+1) == 0; store in the
	// latch too, so every iteration writes the shared page.
	latch := prog.Funcs[0].Blocks[3]
	latch.Instrs = append([]isa.Instr{ir.St(isa.R(1), 72, isa.R(8))}, latch.Instrs...)
	snap := m.Clone()
	mach := New(ir.MustLinearize(prog), snap.Clone(), DefaultConfig(4))
	checkSteadyZeroAllocs(t, mach, "cycle loop over a cloned memory")
	if _, fresh := allocProbeProgram(0); !snap.Equal(fresh) {
		t.Fatal("the machine's stores reached the snapshot it was cloned from")
	}
}

// checkSteadyZeroAllocs warms mach up over 50k steps, then fails t if ten
// rounds of 10k steps allocate, or if those steps skipped no frozen
// cycle: the pin must cover the skip, so simulated cycles have to outrun
// the stepCycle calls.
func checkSteadyZeroAllocs(t *testing.T, mach *Machine, what string) {
	t.Helper()
	step := func(steps int) {
		for i := 0; i < steps; i++ {
			done, err := mach.stepCycle()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if done {
				t.Fatalf("program finished during measurement (step %d); enlarge iters", i)
			}
		}
	}
	step(50_000) // warm up

	start := mach.now
	if allocs := testing.AllocsPerRun(10, func() { step(10_000) }); allocs != 0 {
		t.Fatalf("%s allocates: %v allocs per 10k steps", what, allocs)
	}
	// AllocsPerRun calls its function once more before measuring.
	steps, cycles := int64(11*10_000), mach.now-start
	if cycles <= steps {
		t.Fatalf("%s: %d steps advanced %d cycles; no frozen cycle was skipped", what, steps, cycles)
	}
	t.Logf("%s: %d steps advanced %d cycles (%.1f%% skipped)", what, steps, cycles,
		100*float64(cycles-steps)/float64(cycles))
}

// TestSBViewStoreZeroAllocs pins down the satellite fix: the store
// buffer's eager fault probe must not consult the page table or allocate
// a Fault — neither on the valid-address path nor on wrong-path garbage
// addresses, and wrong-path loads of unmapped addresses are equally free.
func TestSBViewStoreZeroAllocs(t *testing.T) {
	prog, m := allocProbeProgram(10)
	mach := New(ir.MustLinearize(prog), m, DefaultConfig(4))
	v := sbView{mach}
	mach.sb = mach.sb[:0]

	if allocs := testing.AllocsPerRun(100, func() {
		if err := v.Store(1<<20, 42); err != nil {
			t.Fatalf("valid store faulted: %v", err)
		}
		mach.sb = mach.sb[:0] // keep the buffer from growing
		if err := v.Store(3, 42); err == nil {
			t.Fatal("misaligned store did not fault")
		}
		if _, err := v.Load(3); err == nil {
			t.Fatal("misaligned load did not fault")
		}
		if _, err := v.Load(1 << 21); err != nil {
			t.Fatalf("valid load faulted: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("sbView probes allocate: %v allocs/op", allocs)
	}
}

// TestUndoLogMatchesFullSnapshots runs the random differential programs in
// paranoid-checkpoint mode: every speculation point also takes a full
// register-file snapshot, and every squash cross-checks the undo-journal
// rewind against it (divergence panics inside the machine). The resulting
// stats must be bit-identical to a plain run — the debug machinery itself
// must be invisible to the timing model.
func TestUndoLogMatchesFullSnapshots(t *testing.T) {
	flushesSeen := int64(0)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)
		for _, w := range []int{2, 8} {
			plain := New(ir.MustLinearize(prog.Clone()), m.Clone(), DefaultConfig(w))
			plainStats, err := plain.Run()
			if err != nil {
				t.Fatalf("seed %d w%d plain: %v", seed, w, err)
			}

			cfg := DefaultConfig(w)
			cfg.debugCheckpoints = true
			checked := New(ir.MustLinearize(prog.Clone()), m.Clone(), cfg)
			checkedStats, err := checked.Run()
			if err != nil {
				t.Fatalf("seed %d w%d checked: %v", seed, w, err)
			}

			if !reflect.DeepEqual(plainStats, checkedStats) {
				t.Fatalf("seed %d w%d: debug checkpoints changed the stats", seed, w)
			}
			flushesSeen += checkedStats.Flushes

			gm := m.Clone()
			if _, _, err := interp.Run(ir.MustLinearize(prog), gm, interp.Options{}); err != nil {
				t.Fatalf("seed %d golden: %v", seed, err)
			}
			if !checked.Memory().Equal(gm) {
				t.Fatalf("seed %d w%d: architectural divergence under debug checkpoints", seed, w)
			}
		}
	}
	if flushesSeen == 0 {
		t.Fatal("no squashes exercised; the snapshot cross-check never ran")
	}
}

// BenchmarkStepCycle measures the raw cost of the simulator core (no
// report/JSON overhead), with allocation accounting — the number that the
// allocation-free rewrite optimizes. One stepCycle call can cover a whole
// frozen run, so ns/op is per call and ns/cycle per simulated cycle.
func BenchmarkStepCycle(b *testing.B) {
	prog, m := allocProbeProgram(2_000_000_000)
	mach := New(ir.MustLinearize(prog), m, DefaultConfig(4))
	for i := 0; i < 50_000; i++ {
		if _, err := mach.stepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	start := mach.now
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.stepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mach.now-start), "ns/cycle")
}
