package main

import (
	"testing"

	"vanguard/internal/harness"
)

func TestCountFailures(t *testing.T) {
	cases := []struct {
		digests  []string
		expected string
		seed     int64
		want     int
	}{
		{[]string{"a", "a", "a"}, "a", 0, 0},
		{[]string{"a", "b", "a"}, "a", 0, 1},
		{[]string{"b", "b"}, "a", 0, 2}, // agree with each other, not with the committed digest
		{[]string{"b", "b", "b"}, "", 5, 0},
		{[]string{"b", "c", "b"}, "", 5, 1},
		{[]string{"b", "", "b"}, "", 5, 1}, // "" is a repetition that returned an error
		{[]string{"a"}, "", 0, 1},          // no committed digest
	}
	for _, c := range cases {
		if got := countFailures(c.digests, c.expected, c.seed); got != c.want {
			t.Errorf("countFailures(%q, %q, seed %d) = %d, want %d", c.digests, c.expected, c.seed, got, c.want)
		}
	}
}

func TestOptionsSeeds(t *testing.T) {
	fast := harness.FastOptions()
	for _, w := range workloads {
		o := w.options(0)
		if o.TrainInput.Seed != fast.TrainInput.Seed || o.RefInputs[0].Seed != fast.RefInputs[0].Seed {
			t.Errorf("%s: seed 0 inputs %+v %+v differ from FastOptions' seeds", w.name, o.TrainInput, o.RefInputs)
		}
		o3 := w.options(3)
		if o3.TrainInput.Seed != fast.TrainInput.Seed+3000 || o3.RefInputs[0].Seed != fast.RefInputs[0].Seed+3000 {
			t.Errorf("%s: seed 3 inputs %+v %+v are not offset by 3000", w.name, o3.TrainInput, o3.RefInputs)
		}
		if o.Jobs != 1 || len(o.Widths) != 1 || o.Widths[0] != 4 {
			t.Errorf("%s: jobs %d widths %v", w.name, o.Jobs, o.Widths)
		}
		if _, err := w.configs(); err != nil {
			t.Error(err)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("an unknown workload resolved")
	}
}

// TestWarmSmoke fills a run cache for one fp2006 benchmark, then checks
// that a warm repetition reads every simulation from it and that the
// replay reading its own filled cache reproduces the harness digest.
func TestWarmSmoke(t *testing.T) {
	w := &benchWorkload{name: "smoke", benches: smokeWorkload.benches, warm: true}
	dir := t.TempDir()
	p, err := w.setup(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	s, err := w.rep(p)
	if err != nil {
		t.Fatal(err)
	}
	if hits := p.o.Cache.Hits(); hits != 4 {
		t.Errorf("warm repetition: %d cache hits, want 4", hits)
	}

	c, _, err := freshCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&replayer{cache: c}).replay(w, p.o); err != nil {
		t.Fatal(err)
	}
	r := &replayer{tr: newTracer(true), cache: c}
	digest, err := r.replay(w, p.o)
	if err != nil {
		t.Fatal(err)
	}
	if digest != s.digest {
		t.Errorf("replay digest %s, harness digest %s", digest, s.digest)
	}
	if r.n.computedSims != 0 || r.n.sims != 4 {
		t.Errorf("warm replay computed %d of %d simulations", r.n.computedSims, r.n.sims)
	}
}

// TestExpectedDigests runs every workload once at seed 0 against its
// committed digest. A change that alters simulated results fails here;
// README.md says how to refresh the digests.
func TestExpectedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		o := w.options(0)
		c, _, err := freshCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o.Cache = c
		got, err := w.experiment(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if want := expectedDigest(w.name); got != want {
			t.Errorf("%s: digest %s, committed %s", w.name, got, want)
		}
	}
}
