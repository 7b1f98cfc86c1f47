package pipeline_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vanguard/internal/asm"
	"vanguard/internal/core"
	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// eventDigest is a trace sink that folds every event into a running
// 64-bit FNV-1a digest over its fields, so two event streams of any
// length compare in constant memory.
type eventDigest struct {
	sum uint64
	n   int64
}

func (d *eventDigest) Emit(ev trace.Event) {
	if d.n == 0 {
		d.sum = 14695981039346656037
	}
	for _, v := range [...]int64{int64(ev.Kind), int64(ev.Cause), ev.Cycle, ev.Seq, int64(ev.PC),
		int64(ev.Ins.Op), ev.Ins.Imm, int64(ev.Ins.Target), ev.Val, int64(ev.Addr)} {
		d.sum = (d.sum ^ uint64(v)) * 1099511628211
	}
	d.n++
}

func (d *eventDigest) Close() error { return nil }

// simOutcome is everything a run produces that the skip must reproduce.
type simOutcome struct {
	stats  []byte // Stats JSON, observer sections included
	err    string
	mem    *mem.Memory
	events eventDigest
}

// simulate runs prog over a clone of m, with an event digest attached as
// the sink when sink is set.
func simulate(t testing.TB, prog *pipeline.Program, m *mem.Memory, cfg pipeline.Config, sink bool) simOutcome {
	t.Helper()
	var out simOutcome
	out.mem = m.Clone()
	mach := prog.NewMachine(out.mem, cfg)
	if sink {
		mach.Sink = &out.events
	}
	st, err := mach.Run()
	if err != nil {
		out.err = err.Error()
	}
	js, jerr := json.Marshal(st)
	if jerr != nil {
		t.Fatal(jerr)
	}
	out.stats = js
	return out
}

// observe switches every run observer on: attribution, the predictor
// probe, pipeview and the sampler (at window cycles unless cfg already
// sets one).
func observe(cfg pipeline.Config, window int64) pipeline.Config {
	cfg.Attr, cfg.Probe = true, true
	cfg.Pipeview = &pipeview.Config{AroundSquash: 3}
	if cfg.SampleWindow == 0 {
		cfg.SampleWindow = window
	}
	return cfg
}

// checkSkip runs prog with frozen-cycle skipping and with the per-cycle
// stepper and fails t unless the two agree on the Stats JSON, the error,
// the final memory and the event stream. It returns the skip run's error.
func checkSkip(t testing.TB, label string, prog *pipeline.Program, m *mem.Memory, cfg pipeline.Config, sink bool) string {
	t.Helper()
	got := simulate(t, prog, m, cfg, sink)
	want := simulate(t, prog, m, pipeline.Stepper(cfg), sink)
	switch {
	case got.err != want.err:
		t.Fatalf("%s: error %q, stepper %q", label, got.err, want.err)
	case string(got.stats) != string(want.stats):
		t.Fatalf("%s: Stats differ from the stepper's:\n  skip    %s\n  stepper %s", label, got.stats, want.stats)
	case !got.mem.Equal(want.mem):
		t.Fatalf("%s: final memory differs from the stepper's", label)
	case got.events != want.events:
		t.Fatalf("%s: event stream differs from the stepper's (%d events, stepper %d)",
			label, got.events.n, want.events.n)
	}
	return got.err
}

// skipConfigs are the machine variations of the random-loop matrix: each
// reaches a different set of frozen-run ends (exceptions, the cycle cap,
// a livelock on a unit class with no units, the instruction cap, a
// buffer that fills at once, windows shorter than most stall runs).
var skipConfigs = []struct {
	name     string
	observed bool
	set      func(*pipeline.Config)
}{
	{"plain", false, func(*pipeline.Config) {}},
	{"observed", true, func(*pipeline.Config) {}},
	{"exceptions", true, func(c *pipeline.Config) { c.ExceptionEveryN = 97 }},
	{"exceptions-invalidate", true, func(c *pipeline.Config) {
		c.ExceptionEveryN, c.DBBInvalidateOnException = 64, true
	}},
	{"cycle-cap", true, func(c *pipeline.Config) { c.MaxCycles = 777 }},
	{"no-int-units", true, func(c *pipeline.Config) { c.IntUnits, c.MaxCycles = 0, 20_000 }},
	{"max-instrs", true, func(c *pipeline.Config) { c.MaxInstrs = 300 }},
	{"fetch-buffer-3", true, func(c *pipeline.Config) { c.FetchBufEntries = 3 }},
	{"window-5", true, func(c *pipeline.Config) { c.SampleWindow = 5 }},
}

// randomVariants returns seed's random loop raw, list-scheduled and, when
// the transform converts its hammock, decomposed and scheduled, with the
// loop's initial memory.
func randomVariants(t *testing.T, seed int64) ([]string, []*ir.Program, *mem.Memory) {
	t.Helper()
	prog, m := pipeline.RandomLoopProgram(rand.New(rand.NewSource(seed)))
	names, progs := []string{"raw"}, []*ir.Program{prog.Clone()}

	scheduled := prog.Clone()
	sched.Program(scheduled, sched.DefaultModel(4))
	names, progs = append(names, "scheduled"), append(progs, scheduled)

	trans := prog.Clone()
	prof := &profile.Profile{ByID: map[int]*profile.Branch{
		1: {ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
	}}
	rep, err := core.Transform(trans, prof, core.DefaultOptions())
	if err != nil {
		t.Fatalf("seed %d transform: %v", seed, err)
	}
	if len(rep.Converted) == 1 {
		sched.Program(trans, sched.DefaultModel(4))
		names, progs = append(names, "decomposed"), append(progs, trans)
	}
	return names, progs, m
}

// loadWaitSwitch stalls the head on two loads whose first operand
// arrives first: load_wait blames the quick load, then the slow one,
// before the head issues, so a frozen run must wake at the earlier
// operand, not when the head can issue.
const loadWaitSwitch = `func main
entry:
	li      r1, 1048576
	ld      r9, 0(r1)       ; bring the line in
	add     r2, r9, r9
	ld      r8, 65536(r1)   ; a cold line: memory latency
	ld      r9, 8(r1)       ; an L1 hit
	add     r10, r9, r8
	halt
endfunc
`

// TestSkipMatchesStepper is the oracle of frozen-cycle skipping: every
// run must be byte-identical to the per-cycle stepper's in Stats
// (attribution, samples, pipeview and predictor study included), error,
// final memory and event stream. Random loops, raw, scheduled and
// decomposed, run at widths 1/2/4/8 under every skipConfigs variation;
// without -short, every int2006 and fp2006 -fast binary also runs at
// widths 2/4/8 with every observer on. The race detector slows that
// matrix past the package's test timeout and has nothing to find in a
// single-goroutine machine, so under -race only the random loops run;
// make check's plain test step runs the whole matrix.
func TestSkipMatchesStepper(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		capped := 0
		for seed := int64(0); seed < 16; seed++ {
			names, progs, m := randomVariants(t, seed)
			for i, p := range progs {
				prog := pipeline.Predecode(ir.MustLinearize(p))
				for _, w := range []int{1, 2, 4, 8} {
					for _, c := range skipConfigs {
						cfg := pipeline.DefaultConfig(w)
						c.set(&cfg)
						if c.observed {
							cfg = observe(cfg, 1000)
						}
						label := fmt.Sprintf("seed %d %s w%d %s", seed, names[i], w, c.name)
						if checkSkip(t, label, prog, m, cfg, c.observed) != "" {
							capped++
						}
					}
				}
			}
		}
		if capped == 0 {
			t.Fatal("no run hit the cycle cap; the cap's wake was never exercised")
		}
	})
	t.Run("load-wait-switch", func(t *testing.T) {
		p, err := asm.Parse(loadWaitSwitch)
		if err != nil {
			t.Fatal(err)
		}
		prog := pipeline.Predecode(ir.MustLinearize(p))
		cfg := pipeline.DefaultConfig(4)
		cfg.Attr = true
		checkSkip(t, "load-wait-switch", prog, mem.New(), cfg, true)
		st, err := prog.NewMachine(mem.New(), cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Attr.Loads) != 3 {
			t.Fatalf("load_wait blamed %d loads, want all 3: %+v", len(st.Attr.Loads), st.Attr.Loads)
		}
	})
	if testing.Short() || raceEnabled {
		return
	}

	o := harness.FastOptions()
	in := o.RefInputs[0]
	for _, c := range append(workload.Int2006(), workload.FP2006()...) {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			base, exp, _, _, err := harness.BuildBinaries(c, o)
			if err != nil {
				t.Fatal(err)
			}
			_, m := c.Generate(in)
			for _, b := range []struct {
				name string
				p    *ir.Program
			}{{"base", base}, {"exp", exp}} {
				prog := pipeline.Predecode(c.PatchIters(ir.MustLinearize(b.p), in.Iters))
				for _, w := range []int{2, 4, 8} {
					label := fmt.Sprintf("%s/%s w%d", c.Name, b.name, w)
					if err := checkSkip(t, label, prog, m, observe(pipeline.DefaultConfig(w), 1000), true); err != "" {
						t.Fatalf("%s: %s", label, err)
					}
				}
			}
		})
	}
}

// FuzzSkipMatchesStepper holds the skip to the stepper on arbitrary
// assembly programs (seeded from examples/asm) and machine shapes: width,
// front-end depth, fetch-buffer size, unit counts (zero units livelock
// to the cycle cap), sample window, cycle cap and exception rate (odd
// rates also invalidate the DBB), with every observer on. The cycle-limit
// error must read the same on both paths.
func FuzzSkipMatchesStepper(f *testing.F) {
	files, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		s := string(src)
		f.Add(s, uint8(4), uint8(5), uint8(32), uint8(2), uint8(2), uint8(4), uint16(0), uint16(65535), uint16(0))
		f.Add(s, uint8(2), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint16(5), uint16(65535), uint16(301))
		f.Add(s, uint8(8), uint8(8), uint8(16), uint8(0), uint8(2), uint8(4), uint16(100), uint16(3000), uint16(0))
		f.Add(s, uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0), uint16(7), uint16(999), uint16(64))
	}
	f.Add(loadWaitSwitch, uint8(4), uint8(5), uint8(32), uint8(2), uint8(2), uint8(4), uint16(0), uint16(65535), uint16(0))
	f.Fuzz(func(t *testing.T, src string, width, depth, fetchBuf, intUnits, memUnits, fpUnits uint8,
		window, maxCycles, exceptionEveryN uint16) {
		p, err := asm.Parse(src)
		if err != nil {
			return
		}
		im, err := ir.Linearize(p)
		if err != nil {
			return
		}
		cfg := pipeline.DefaultConfig(1 + int(width%8))
		cfg.FrontEndDepth = 1 + int(depth%8)
		cfg.FetchBufEntries = 1 + int(fetchBuf%40)
		cfg.IntUnits, cfg.MemUnits, cfg.FPUnits = int(intUnits%3), int(memUnits%3), int(fpUnits%5)
		cfg.SampleWindow = int64(window % 2048)
		cfg.MaxCycles = 1 + int64(maxCycles)
		if exceptionEveryN > 0 {
			cfg.ExceptionEveryN = 1 + int64(exceptionEveryN%512)
			cfg.DBBInvalidateOnException = exceptionEveryN%2 == 1
		}
		checkSkip(t, "fuzz", pipeline.Predecode(im), mem.New(), observe(cfg, 0), true)
	})
}
