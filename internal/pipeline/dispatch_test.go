package pipeline

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// TestDispatchDifferential is the timing half of the dispatch claim:
// the predecoded-kernel dispatch engine must produce byte-identical
// statistics — every cycle count, stall histogram, and branch counter —
// and identical architectural memory to the reference switch dispatch,
// on random structured programs across machine widths.
func TestDispatchDifferential(t *testing.T) {
	run := func(p *ir.Program, m *mem.Memory, w int, d exec.Dispatch) (*Stats, *mem.Memory) {
		t.Helper()
		cfg := DefaultConfig(w)
		cfg.Dispatch = d
		pm := m.Clone()
		mach := New(ir.MustLinearize(p), pm, cfg)
		st, err := mach.Run()
		if err != nil {
			t.Fatalf("w%d %v: %v", w, d, err)
		}
		return st, pm
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)
		for _, w := range []int{1, 4, 8} {
			ss, sm := run(prog, m, w, exec.DispatchSwitch)
			ks, km := run(prog, m, w, exec.DispatchKernels)
			if !reflect.DeepEqual(ss, ks) {
				t.Fatalf("seed %d w%d: stats diverged between dispatch engines:\nswitch:  %+v\nkernels: %+v", seed, w, ss, ks)
			}
			if !sm.Equal(km) {
				t.Fatalf("seed %d w%d: architectural memory diverged between dispatch engines", seed, w)
			}
		}
	}
}

// TestProgramDispatchDifferential repeats the A/B over a shared Program:
// kernel-dispatch machines built from one Program and run concurrently
// must match switch-dispatch machines built by New stat for stat.
func TestProgramDispatchDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p, m := randomLoopProgram(r)
	im := ir.MustLinearize(p)
	mems := memVariants(r, m, 3)

	cfg := DefaultConfig(4)
	cfg.Dispatch = exec.DispatchKernels
	got := runShared(t, Predecode(im), cloneAll(mems), cfg, nil)

	cfg.Dispatch = exec.DispatchSwitch
	for i := range mems {
		want := runNew(t, im, mems[i].Clone(), cfg)
		if got[i].err != "" || want.err != "" {
			t.Fatalf("machine %d: errors kernels=%q switch=%q", i, got[i].err, want.err)
		}
		if !bytes.Equal(got[i].stats, want.stats) {
			t.Fatalf("machine %d: kernel machine over a shared Program diverged from switch machine\nswitch:  %s\nkernels: %s",
				i, want.stats, got[i].stats)
		}
		if !got[i].mach.Memory().Equal(want.mach.Memory()) {
			t.Fatalf("machine %d: architectural memory diverged between dispatch engines", i)
		}
	}
}

// TestDispatchCompileErrorSurfacing pins where an uncompilable image
// fails per engine: kernel dispatch rejects it when Run starts (the
// whole image compiles at load), while switch dispatch preserves the
// reference behavior of faulting only if the bad instruction is reached.
// The compile error lives on the shared Program while dispatch is per
// machine, so one Program serves both engines.
func TestDispatchCompileErrorSurfacing(t *testing.T) {
	im := &ir.Image{Instrs: []isa.Instr{
		{Op: isa.HALT},
		{Op: isa.Op(200)}, // past the HALT: never reached dynamically
	}}

	prog := Predecode(im)
	cfg := DefaultConfig(2)
	cfg.Dispatch = exec.DispatchKernels
	if _, err := prog.NewMachine(mem.New(), cfg).Run(); err == nil {
		t.Fatal("kernel dispatch must reject an uncompilable image at Run start")
	} else if !strings.Contains(err.Error(), "op(200)") {
		t.Fatalf("compile rejection must name the opcode: %v", err)
	}

	cfg.Dispatch = exec.DispatchSwitch
	st, err := prog.NewMachine(mem.New(), cfg).Run()
	if err != nil {
		t.Fatalf("switch dispatch must not reject an unreached bad opcode: %v", err)
	}
	if !st.Halted {
		t.Fatal("switch run must halt normally")
	}
}
