package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"vanguard/internal/asm"
	"vanguard/internal/attr"
	"vanguard/internal/core"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/trace"
)

// Observer bits: each switches one way of watching a run on.
const (
	obsAttr     = 1 << iota // Config.Attr: per-cause slot attribution
	obsProbe                // Config.Probe: predictor observatory
	obsPipeview             // Config.Pipeview: lifetime capture
	obsSampler              // Config.SampleWindow: cycle-window series
	obsSink                 // Machine.Sink: ring, text and Chrome sinks
	obsAll      = obsAttr | obsProbe | obsPipeview | obsSampler | obsSink
)

// observerRows are the rows of TestObserversDoNotSteer: every observer
// alone, then all five together.
var observerRows = []struct {
	name string
	set  int
}{
	{"attr", obsAttr},
	{"probe", obsProbe},
	{"pipeview", obsPipeview},
	{"sampler", obsSampler},
	{"sink", obsSink},
	{"all", obsAll},
}

// steerCase is one program the observers watch: a predecoded image, its
// initial memory and the machine configuration with no observer on.
type steerCase struct {
	label string
	prog  *Program
	mem   *mem.Memory
	cfg   Config
}

// steerCases are the programs the single-observer tests this table
// replaces ran on: random structured loops at widths 2 and 4, the
// allocation probe loop, and dotproduct raw and transformed. The probe
// loop runs 2k iterations, not 20k: the text and Chrome sinks format
// every event, and a tenth of the loop still spans 30 sample windows.
func steerCases(t *testing.T) []steerCase {
	t.Helper()
	var cs []steerCase
	for seed := int64(0); seed < 6; seed++ {
		prog, m := randomLoopProgram(rand.New(rand.NewSource(seed)))
		p := Predecode(ir.MustLinearize(prog))
		for _, w := range []int{2, 4} {
			cs = append(cs, steerCase{fmt.Sprintf("random%d/w%d", seed, w), p, m, DefaultConfig(w)})
		}
	}
	prog, m := allocProbeProgram(2_000)
	cs = append(cs, steerCase{"allocprobe/w4", Predecode(ir.MustLinearize(prog)), m, DefaultConfig(4)})
	for _, transform := range []bool{false, true} {
		cs = append(cs, steerCase{fmt.Sprintf("dotproduct/transform=%v", transform),
			Predecode(dotproduct(t, transform, 4)), mem.New(), DefaultConfig(4)})
	}
	return cs
}

// observedRun runs c with the observers in set switched on (the sampler
// at window cycles) and returns its Stats, its final memory and the ring
// an obsSink run fed (nil otherwise).
func observedRun(t *testing.T, c steerCase, set int, window int64) (*Stats, *mem.Memory, *trace.Ring) {
	t.Helper()
	cfg := c.cfg
	cfg.Attr = set&obsAttr != 0
	cfg.Probe = set&obsProbe != 0
	if set&obsPipeview != 0 {
		cfg.Pipeview = &pipeview.Config{AroundSquash: 3}
	}
	if set&obsSampler != 0 {
		cfg.SampleWindow = window
	}
	mach := c.prog.NewMachine(c.mem.Clone(), cfg)
	var ring *trace.Ring
	if set&obsSink != 0 {
		ring = trace.NewRing(128)
		mach.Sink = trace.Tee(ring, &trace.Text{W: io.Discard, All: true},
			trace.NewChrome(nopWriteCloser{io.Discard}))
	}
	st, err := mach.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	return st, mach.Memory(), ring
}

// reportJSON encodes the run's telemetry report.
func reportJSON(t *testing.T, st *Stats, width int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(st.RunReport("timing", width)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkDoesNotSteer runs c once with no observer and once with the
// observers in set, and fails t unless the plain run carries no observer
// section, every enabled observer recorded something, and the observed
// run is otherwise identical: Stats deep-equal and JSON-equal, the same
// telemetry report and the same architectural memory. It returns the
// observed run's Stats.
func checkDoesNotSteer(t *testing.T, c steerCase, set int, window int64) *Stats {
	t.Helper()
	plain, plainMem, _ := observedRun(t, c, 0, 0)
	if plain.Attr != nil || plain.Bpred != nil || plain.Pipeview != nil || plain.Samples != nil {
		t.Fatalf("%s: a run with every observer off exported an observer section", c.label)
	}
	if plain.Cycles == 0 || plain.Committed == 0 {
		t.Fatalf("%s: suspicious empty run: %+v", c.label, plain)
	}
	if plain.FetchToIssue.Count != plain.Issued {
		t.Fatalf("%s: fetch-to-issue samples %d != issued %d", c.label, plain.FetchToIssue.Count, plain.Issued)
	}
	plainReport := reportJSON(t, plain, c.cfg.Width)
	for _, key := range []string{"attribution", "bpredstudy", "pipeview", "samples"} {
		if bytes.Contains(plainReport, []byte(`"`+key+`"`)) {
			t.Fatalf("%s: observer-off report carries a %s section", c.label, key)
		}
	}

	seen, seenMem, ring := observedRun(t, c, set, window)
	switch {
	case set&obsAttr != 0 && seen.Attr == nil:
		t.Fatalf("%s: attributed run has no Attr report", c.label)
	case set&obsProbe != 0 && seen.Bpred == nil:
		t.Fatalf("%s: probed run has no Bpred section", c.label)
	case set&obsPipeview != 0 && (seen.Pipeview == nil || len(seen.Pipeview.Records) == 0):
		t.Fatalf("%s: pipeview run captured nothing", c.label)
	case set&obsSampler != 0 && (seen.Samples == nil || len(seen.Samples.Windows) == 0):
		t.Fatalf("%s: sampled run recorded no window", c.label)
	case set&obsSink != 0 && ring.Len() == 0:
		t.Fatalf("%s: ring sink saw no events", c.label)
	}
	scrubbed := *seen
	scrubbed.Attr, scrubbed.Bpred, scrubbed.Pipeview, scrubbed.Samples = nil, nil, nil, nil
	if !reflect.DeepEqual(plain, &scrubbed) {
		t.Fatalf("%s: observers changed the Stats:\n  plain:    %+v\n  observed: %+v", c.label, plain, &scrubbed)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(&scrubbed)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: observers changed the Stats JSON:\n  plain    %s\n  observed %s", c.label, a, b)
	}
	if !bytes.Equal(plainReport, reportJSON(t, &scrubbed, c.cfg.Width)) {
		t.Fatalf("%s: run reports differ beyond the observer sections", c.label)
	}
	if !plainMem.Equal(seenMem) {
		t.Fatalf("%s: observers changed architectural memory", c.label)
	}
	return seen
}

// TestObserversDoNotSteer pins the observe-never-steer contract of every
// run observer — attribution, the predictor probe, pipeview, the
// sampler and trace sinks — alone and all together: switching them on
// changes nothing but their own sections.
func TestObserversDoNotSteer(t *testing.T) {
	for _, row := range observerRows {
		t.Run(row.name, func(t *testing.T) { checkObserverRow(t, row.set) })
	}
}

// The single-observer rows also run under the names of the five tests
// the table replaced.

func TestAttrOffUnchanged(t *testing.T)           { checkObserverRow(t, obsAttr) }
func TestBpredProbeOffByteIdentical(t *testing.T) { checkObserverRow(t, obsProbe) }
func TestPipeviewDoesNotPerturbRun(t *testing.T)  { checkObserverRow(t, obsPipeview) }
func TestSamplingDoesNotPerturbRun(t *testing.T)  { checkObserverRow(t, obsSampler) }
func TestSinkDoesNotChangeStats(t *testing.T)     { checkObserverRow(t, obsSink) }

// checkObserverRow checks one row of the table over every steer case.
func checkObserverRow(t *testing.T, set int) {
	for _, c := range steerCases(t) {
		checkDoesNotSteer(t, c, set, 512)
	}
}

// checkAttrWindows asserts that a sampled, attributed run's per-window
// attr stacks each sum to the window's cycles times the width, and sum
// over all windows to the whole-run attribution.
func checkAttrWindows(t *testing.T, label string, st *Stats, width int) {
	t.Helper()
	if st.Samples.Dropped != 0 {
		t.Fatalf("%s: the sampler ring dropped %d windows", label, st.Samples.Dropped)
	}
	sums := make([]int64, attr.NumCauses)
	for i := range st.Samples.Windows {
		w := &st.Samples.Windows[i]
		if len(w.Attr) != int(attr.NumCauses) {
			t.Fatalf("%s: window %d: attr stack has %d causes, want %d", label, i, len(w.Attr), attr.NumCauses)
		}
		var winSlots int64
		for c, n := range w.Attr {
			sums[c] += n
			winSlots += n
		}
		if want := w.Cycles() * int64(width); winSlots != want {
			t.Fatalf("%s: window %d: %d slots over %d cycles at width %d", label, i, winSlots, w.Cycles(), width)
		}
	}
	for _, c := range attr.Causes() {
		if sums[c] != st.Attr.Slots[c.Key()] {
			t.Fatalf("%s: cause %s: windows sum to %d, aggregate is %d", label, c.Key(), sums[c], st.Attr.Slots[c.Key()])
		}
	}
}

// FuzzObserversDoNotSteer runs random structured loops, raw and
// decomposed, at widths 1-8 with every observer on against the same run
// with none, over arbitrary sample windows and exception rates (odd rates
// also invalidate the DBB on exceptions). On top of the no-steer contract
// the attribution must conserve slots and its per-window stacks must sum
// to the run totals.
func FuzzObserversDoNotSteer(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed*3), uint16(1000), uint16(seed%2*257))
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint8, window, exceptionEveryN uint16) {
		cfg := DefaultConfig(1 + int(width%8))
		if exceptionEveryN > 0 {
			cfg.ExceptionEveryN = 64 + int64(exceptionEveryN%1024)
			cfg.DBBInvalidateOnException = exceptionEveryN%2 == 1
		}
		win := 16 + int64(window%2048)
		for name, prog := range probeVariants(t, seed) {
			_, m := randomLoopProgram(rand.New(rand.NewSource(seed))) // same seed: the memory matches
			c := steerCase{fmt.Sprintf("seed %d %s w%d", seed, name, cfg.Width),
				Predecode(ir.MustLinearize(prog)), m, cfg}
			st := checkDoesNotSteer(t, c, obsAll, win)
			if err := st.Attr.Check(); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			checkAttrWindows(t, c.label, st, cfg.Width)
		}
	})
}

// dotproduct loads and (optionally) transforms examples/asm/dotproduct.s,
// returning a fresh linearized image for each run.
func dotproduct(t *testing.T, transform bool, width int) *ir.Image {
	t.Helper()
	src, err := os.ReadFile("../../examples/asm/dotproduct.s")
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if transform {
		prof, err := profile.CollectDefault(ir.MustLinearize(p), mem.New(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Transform(p, prof, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		sched.Program(p, sched.DefaultModel(width))
	}
	return ir.MustLinearize(p)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }
