package pipeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/trace"
)

// memVariants clones base n times and overwrites the branch-outcome
// script with per-copy random content, so machines over one image
// diverge in control flow, flush behavior, and run length — the shape of
// a sweep over seeds.
func memVariants(r *rand.Rand, base *mem.Memory, n int) []*mem.Memory {
	const dataBase = int64(1 << 20)
	mems := make([]*mem.Memory, n)
	for i := range mems {
		mems[i] = base.Clone()
		for off := int64(0); off < 256*8; off += 8 {
			mems[i].MustStore(uint64(dataBase+2048+off), int64(r.Intn(2)))
		}
	}
	return mems
}

// statsJSON marshals one run's full Stats (counters, histograms, and any
// attached telemetry reports) for byte-level comparison.
func statsJSON(t *testing.T, st *Stats) []byte {
	t.Helper()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return buf
}

// sharedRun is one machine's outcome in runShared.
type sharedRun struct {
	mach  *Machine
	stats []byte
	err   string
}

// runShared builds one machine per memory from a single Program and runs
// them all at once, one goroutine each. setup, when non-nil, runs on
// machine i before it starts (e.g. to attach a trace sink).
func runShared(t *testing.T, prog *Program, mems []*mem.Memory, cfg Config, setup func(i int, m *Machine)) []sharedRun {
	t.Helper()
	out := make([]sharedRun, len(mems))
	sts := make([]*Stats, len(mems))
	var wg sync.WaitGroup
	for i, m := range mems {
		out[i].mach = prog.NewMachine(m, cfg)
		if setup != nil {
			setup(i, out[i].mach)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := out[i].mach.Run()
			sts[i] = st
			if err != nil {
				out[i].err = err.Error()
			}
		}(i)
	}
	wg.Wait()
	for i := range out {
		out[i].stats = statsJSON(t, sts[i])
	}
	return out
}

// runNew runs one machine built by New over a private copy of mem.
func runNew(t *testing.T, im *ir.Image, m *mem.Memory, cfg Config) sharedRun {
	t.Helper()
	mach := New(im, m, cfg)
	st, err := mach.Run()
	r := sharedRun{mach: mach, stats: statsJSON(t, st)}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// cloneAll deep-copies every memory so two runs start from equal state.
func cloneAll(mems []*mem.Memory) []*mem.Memory {
	out := make([]*mem.Memory, len(mems))
	for i, m := range mems {
		out[i] = m.Clone()
	}
	return out
}

// TestProgramSharedMatchesNew is the shared-Program correctness oracle: a
// group of machines built from one Program and run concurrently must each
// produce byte-identical Stats JSON and identical architectural memory to
// the same run through a New machine, across random programs and machine
// widths. Under -race it also proves the Program is never written during
// a run.
func TestProgramSharedMatchesNew(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		p, base := randomLoopProgram(r)
		im := ir.MustLinearize(p)
		mems := memVariants(r, base, 6)
		prog := Predecode(im)

		for _, w := range []int{2, 4} {
			cfg := DefaultConfig(w)
			got := runShared(t, prog, cloneAll(mems), cfg, nil)
			for i := range mems {
				want := runNew(t, im, mems[i].Clone(), cfg)
				if got[i].err != "" || want.err != "" {
					t.Fatalf("seed %d w%d machine %d: errors shared=%q new=%q", seed, w, i, got[i].err, want.err)
				}
				if !bytes.Equal(got[i].stats, want.stats) {
					t.Fatalf("seed %d w%d machine %d: stats diverged from New\nnew:    %s\nshared: %s",
						seed, w, i, want.stats, got[i].stats)
				}
				if !got[i].mach.Memory().Equal(want.mach.Memory()) {
					t.Fatalf("seed %d w%d machine %d: architectural memory diverged", seed, w, i)
				}
			}
		}
	}
}

// TestProgramSequentialReuse pins that one machine over a Program is
// exactly a New run, and so is a second machine built over the same
// Program after the first has run to completion — a finished run leaves
// nothing behind in the Program.
func TestProgramSequentialReuse(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p, base := randomLoopProgram(r)
	im := ir.MustLinearize(p)
	cfg := DefaultConfig(4)
	want := runNew(t, im, base.Clone(), cfg)
	if want.err != "" {
		t.Fatalf("scalar: %s", want.err)
	}

	prog := Predecode(im)
	for run := 0; run < 2; run++ {
		got := runShared(t, prog, []*mem.Memory{base.Clone()}, cfg, nil)[0]
		if got.err != "" {
			t.Fatalf("run %d: %s", run, got.err)
		}
		if !bytes.Equal(got.stats, want.stats) {
			t.Fatalf("run %d: single machine over a Program diverged from scalar run\nscalar: %s\nshared: %s",
				run, want.stats, got.stats)
		}
		if !got.mach.Memory().Equal(want.mach.Memory()) {
			t.Fatalf("run %d: single machine over a Program: memory diverged from scalar run", run)
		}
	}
}

// TestProgramCycleCap pins that a machine hitting its cycle cap reports
// the same error and stats as a New machine, whatever its siblings on the
// same Program do.
func TestProgramCycleCap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p, base := randomLoopProgram(r)
	im := ir.MustLinearize(p)
	mems := memVariants(r, base, 4)

	// Cap cycles low enough that some machines stop early.
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 300

	got := runShared(t, Predecode(im), cloneAll(mems), cfg, nil)
	for i := range mems {
		want := runNew(t, im, mems[i].Clone(), cfg)
		if got[i].err != want.err {
			t.Fatalf("machine %d: error %q, New %q", i, got[i].err, want.err)
		}
		if !bytes.Equal(got[i].stats, want.stats) {
			t.Fatalf("machine %d: stats diverged from New under cycle cap", i)
		}
	}
}

// TestProgramObservers pins the observer contract over a shared Program:
// attribution, the cycle-window sampler, the pipeview recorder and the
// predictor probe are all per-machine state, so concurrent machines with
// every hook enabled must reproduce each New run's telemetry byte for
// byte.
func TestProgramObservers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p, base := randomLoopProgram(r)
	im := ir.MustLinearize(p)
	mems := memVariants(r, base, 4)

	cfg := DefaultConfig(4)
	cfg.Attr = true
	cfg.Probe = true
	cfg.SampleWindow = 64
	cfg.Pipeview = &pipeview.Config{MaxRecords: 1 << 14, MaxFlushes: 1 << 12}

	got := runShared(t, Predecode(im), cloneAll(mems), cfg, nil)
	for i := range mems {
		want := runNew(t, im, mems[i].Clone(), cfg)
		if got[i].err != "" || want.err != "" {
			t.Fatalf("machine %d: errors shared=%q new=%q", i, got[i].err, want.err)
		}
		st := &got[i].mach.stats
		if st.Attr == nil || st.Samples == nil || st.Pipeview == nil || st.Bpred == nil {
			t.Fatalf("machine %d: missing telemetry report (attr=%v samples=%v pipeview=%v bpred=%v)",
				i, st.Attr != nil, st.Samples != nil, st.Pipeview != nil, st.Bpred != nil)
		}
		if !bytes.Equal(got[i].stats, want.stats) {
			t.Fatalf("machine %d: telemetry diverged from New under observers", i)
		}
	}
}

// TestProgramPerMachineSinks pins that a trace sink attached to one
// machine observes only that machine's event stream: each ring matches
// the ring of the equivalent New run.
func TestProgramPerMachineSinks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	p, base := randomLoopProgram(r)
	im := ir.MustLinearize(p)
	mems := memVariants(r, base, 3)
	cfg := DefaultConfig(4)

	want := make([][]trace.Event, len(mems))
	for i := range mems {
		ring := trace.NewRing(1 << 12)
		mach := New(im, mems[i].Clone(), cfg)
		mach.Sink = ring
		if _, err := mach.Run(); err != nil {
			t.Fatalf("machine %d New: %v", i, err)
		}
		want[i] = append([]trace.Event(nil), ring.Events()...)
	}

	rings := make([]*trace.Ring, len(mems))
	got := runShared(t, Predecode(im), cloneAll(mems), cfg, func(i int, m *Machine) {
		rings[i] = trace.NewRing(1 << 12)
		m.Sink = rings[i]
	})
	for i := range mems {
		if got[i].err != "" {
			t.Fatalf("machine %d: %s", i, got[i].err)
		}
		evs := rings[i].Events()
		if len(evs) != len(want[i]) {
			t.Fatalf("machine %d: %d events, New %d", i, len(evs), len(want[i]))
		}
		for k := range evs {
			if evs[k] != want[i][k] {
				t.Fatalf("machine %d event %d: %+v != New %+v", i, k, evs[k], want[i][k])
			}
		}
	}
}

// TestProgramNewMachineAllocs pins what sharing buys: once a Program
// exists, building a machine over it allocates the same amount whatever
// the image length, because the per-PC table and its kernels are not
// rebuilt.
func TestProgramNewMachineAllocs(t *testing.T) {
	halts := func(n int) *Program {
		instrs := make([]isa.Instr, n)
		for i := range instrs {
			instrs[i] = isa.Instr{Op: isa.HALT}
		}
		return Predecode(&ir.Image{Instrs: instrs})
	}
	cfg := DefaultConfig(4)
	m := mem.New()
	allocs := func(p *Program) float64 {
		return testing.AllocsPerRun(20, func() { p.NewMachine(m, cfg) })
	}
	short, long := allocs(halts(16)), allocs(halts(1<<14))
	if short != long {
		t.Fatalf("NewMachine allocs grow with image length: %v for 16 instrs, %v for %d", short, long, 1<<14)
	}
}
