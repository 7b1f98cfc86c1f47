package pipeline

import (
	"bytes"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/trace"
)

// pipeviewAll returns a capture config big enough to hold every record of
// the fast-suite runs, so lifecycle invariants can be checked over the
// complete population rather than a ring-sized suffix.
func pipeviewAll() *pipeview.Config {
	return &pipeview.Config{MaxRecords: 1 << 16, MaxFlushes: 1 << 14}
}

// checkLifecycles asserts the lifecycle-completeness invariant over a
// finished run: every fetched instruction's record carries exactly one
// terminal (commit, squash, or front-end drop), and its stage cycles are
// monotonically non-decreasing (fetch <= issue <= writeback, terminal
// never before issue).
func checkLifecycles(t *testing.T, label string, st *Stats) {
	t.Helper()
	rep := st.Pipeview
	if rep == nil {
		t.Fatalf("%s: Stats.Pipeview nil with pipeview enabled", label)
	}
	if rep.RecordsDropped != 0 {
		t.Fatalf("%s: %d records overwritten; enlarge MaxRecords so the invariant covers the whole run",
			label, rep.RecordsDropped)
	}
	if int64(len(rep.Records)) != st.Fetched {
		t.Errorf("%s: %d records != %d fetched", label, len(rep.Records), st.Fetched)
	}
	var nCommit, nSquash, nDrop int64
	prevFetch := int64(-1)
	prevSeq := int64(-1)
	for i := range rep.Records {
		r := &rep.Records[i]
		terminals := 0
		if r.Commit >= 0 {
			terminals++
			nCommit++
		}
		if r.Squash >= 0 {
			terminals++
			nSquash++
		}
		if r.Drop >= 0 {
			terminals++
			nDrop++
		}
		if terminals != 1 {
			t.Fatalf("%s: seq %d has %d terminals: %+v", label, r.Seq, terminals, r)
		}
		if r.Seq <= prevSeq {
			t.Fatalf("%s: records not strictly Seq-ordered at %d", label, r.Seq)
		}
		if r.Fetch < prevFetch {
			t.Fatalf("%s: seq %d fetched at %d, before predecessor's %d", label, r.Seq, r.Fetch, prevFetch)
		}
		prevSeq, prevFetch = r.Seq, r.Fetch
		term := r.Terminal()
		if r.Issue >= 0 {
			if r.Issue < r.Fetch {
				t.Fatalf("%s: seq %d issued at %d before fetch %d", label, r.Seq, r.Issue, r.Fetch)
			}
			if r.Complete >= 0 && r.Complete < r.Issue {
				t.Fatalf("%s: seq %d wrote back at %d before issue %d", label, r.Seq, r.Complete, r.Issue)
			}
			if term < r.Issue {
				t.Fatalf("%s: seq %d terminal %d before issue %d", label, r.Seq, term, r.Issue)
			}
		} else if term < r.Fetch {
			t.Fatalf("%s: seq %d terminal %d before fetch %d", label, r.Seq, term, r.Fetch)
		}
	}
	// Population identities: commits, squashes and drops partition the
	// fetch stream exactly as the aggregate counters do.
	if nDrop != st.Predicts {
		t.Errorf("%s: %d dropped records != %d predicts", label, nDrop, st.Predicts)
	}
	if nCommit != st.Committed {
		t.Errorf("%s: %d committed records != %d committed", label, nCommit, st.Committed)
	}
	if want := st.SquashedFetched + st.WrongPathIssued; nSquash != want {
		t.Errorf("%s: %d squashed records != %d squashed+wrong-path", label, nSquash, want)
	}
}

// TestLifecycleCompleteness is the satellite invariant gate: on real
// runs — baseline and vanguard dotproduct, plus an exception-injecting
// probe — every fetched Seq terminates in exactly one commit, squash or
// drop, with monotonic stage cycles.
func TestLifecycleCompleteness(t *testing.T) {
	// Baseline: the plain dotproduct benchmark.
	cfg := DefaultConfig(4)
	cfg.Pipeview = pipeviewAll()
	m := New(dotproduct(t, false, 4), mem.New(), cfg)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkLifecycles(t, "base", st)
	if st.Flushes > 0 && len(st.Pipeview.Flushes) == 0 {
		t.Errorf("base: %d flushes but empty genealogy", st.Flushes)
	}

	// Vanguard: the canonical decomposed hammock with a scripted,
	// partially mispredictable condition stream — PREDICT drops, RESOLVE
	// firings and DBB traffic all appear in the records.
	const n = 3000
	p, scriptBase := decomposed(n)
	mm := mem.New()
	pat := []int64{1, 1, 0, 0, 1}
	for i := int64(0); i < n; i++ {
		mm.MustStore(scriptBase+uint64(i)*8, pat[i%int64(len(pat))])
	}
	cfg = DefaultConfig(4)
	cfg.Pipeview = pipeviewAll()
	mach := New(ir.MustLinearize(p), mm, cfg)
	st, err = mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkLifecycles(t, "vanguard", st)
	if st.Predicts == 0 {
		t.Error("vanguard run exercised no PREDICT drops")
	}
	if st.Flushes > 0 && len(st.Pipeview.Flushes) == 0 {
		t.Errorf("vanguard: %d flushes but empty genealogy", st.Flushes)
	}

	// Exception injection exercises the quiet-point squash path.
	prog, pm := allocProbeProgram(5_000)
	cfg = DefaultConfig(4)
	cfg.Pipeview = pipeviewAll()
	cfg.ExceptionEveryN = 997
	mach = New(ir.MustLinearize(prog), pm, cfg)
	st, err = mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Exceptions == 0 {
		t.Fatal("probe run injected no exceptions")
	}
	checkLifecycles(t, "exceptions", st)
	var excFlushes int
	for _, f := range st.Pipeview.Flushes {
		if f.Cause == "exception" {
			excFlushes++
		}
	}
	if excFlushes == 0 {
		t.Error("no exception rows in the genealogy")
	}
}

// TestPipeviewReportSections pins the telemetry plumbing: a pipeviewed
// run's RunReport carries the section, the report write stamps schema
// v4, and the round trip preserves the records.
func TestPipeviewReportSections(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Pipeview = &pipeview.Config{}
	m := New(dotproduct(t, true, 4), mem.New(), cfg)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	run := st.RunReport("timing", 4)
	if run.Pipeview == nil {
		t.Fatal("RunReport dropped the pipeview section")
	}
	rep := trace.NewReport("test")
	rep.Benchmarks = append(rep.Benchmarks, &trace.BenchReport{
		Name: "dotproduct", Runs: []*trace.RunReport{run},
	})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != trace.Schema {
		t.Errorf("schema %q, want %q", back.Schema, trace.Schema)
	}
	got := back.Benchmarks[0].Runs[0].Pipeview
	if got == nil || len(got.Records) != len(st.Pipeview.Records) {
		t.Fatalf("pipeview section lost in round trip")
	}
	if got.Records[0] != st.Pipeview.Records[0] {
		t.Errorf("record drifted in round trip:\n%+v\n%+v", got.Records[0], st.Pipeview.Records[0])
	}
}

// TestSteadyStateZeroAllocsWithPipeview extends the zero-alloc gate to a
// recording machine: assembling lifetime records on every event in the
// measurement loop must not allocate (the ring and genealogy storage are
// preallocated; Emit is allocation-free).
func TestSteadyStateZeroAllocsWithPipeview(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	cfg := DefaultConfig(4)
	cfg.Pipeview = &pipeview.Config{}
	mach := New(ir.MustLinearize(prog), m, cfg)
	mach.attachPipeview()
	checkSteadyZeroAllocs(t, mach, "pipeview cycle loop")
}
