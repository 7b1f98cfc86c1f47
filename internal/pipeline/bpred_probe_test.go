package pipeline

import (
	"math/rand"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/ir"
	"vanguard/internal/profile"
)

// probeVariants builds the raw and decomposed (PREDICT/RESOLVE) forms of
// a random structured program, so probe tests cover both the BR and the
// DBB-mediated RESOLVE observation paths.
func probeVariants(t *testing.T, seed int64) map[string]*ir.Program {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	prog, _ := randomLoopProgram(r)
	variants := map[string]*ir.Program{"raw": prog.Clone()}
	trans := prog.Clone()
	prof := &profile.Profile{ByID: map[int]*profile.Branch{
		1: {ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
	}}
	if rep, err := core.Transform(trans, prof, core.DefaultOptions()); err != nil {
		t.Fatalf("seed %d transform: %v", seed, err)
	} else if len(rep.Converted) == 1 {
		variants["decomposed"] = trans
	}
	return variants
}

// TestBpredProbeConservation is the pipeline-level conservation pin: on
// raw and decomposed random programs — including runs with exception
// injection invalidating DBB entries, which suppresses updates but not
// resolutions — the study's classified branches must sum exactly to the
// pipeline's own resolution and misprediction totals, and every
// per-branch digest must agree with Stats.PerBranch.
func TestBpredProbeConservation(t *testing.T) {
	resolvesSeen, suppressedSeen := int64(0), false
	for seed := int64(0); seed < 10; seed++ {
		for name, p := range probeVariants(t, seed) {
			r := rand.New(rand.NewSource(seed))
			_, m := randomLoopProgram(r) // same seed: the memory image matches the program
			for _, exn := range []int64{0, 256} {
				cfg := DefaultConfig(4)
				cfg.Probe = true
				cfg.ExceptionEveryN = exn
				cfg.DBBInvalidateOnException = exn > 0
				mach := New(ir.MustLinearize(p.Clone()), m.Clone(), cfg)
				st, err := mach.Run()
				if err != nil {
					t.Fatalf("seed %d %s exn%d: %v", seed, name, exn, err)
				}
				rep := st.Bpred
				if rep == nil {
					t.Fatal("no study report")
				}
				if err := rep.CheckAgainst(st.CondBranches+st.Resolves, st.BrMispredicts+st.ResMispredicts); err != nil {
					t.Fatalf("seed %d %s exn%d: %v", seed, name, exn, err)
				}
				for i := range rep.Branches {
					d := &rep.Branches[i]
					bs := st.PerBranch[d.ID]
					if bs == nil {
						t.Fatalf("seed %d %s: digest for branch %d has no PerBranch entry", seed, name, d.ID)
					}
					if bs.Execs != d.Execs || bs.Mispredicts != d.Mispredicts {
						t.Fatalf("seed %d %s: branch %d digest (%d execs, %d misp) != PerBranch (%d, %d)",
							seed, name, d.ID, d.Execs, d.Mispredicts, bs.Execs, bs.Mispredicts)
					}
				}
				resolvesSeen += rep.Resolves
				if rep.Updates < rep.Resolves {
					suppressedSeen = true
				}
			}
		}
	}
	if resolvesSeen == 0 {
		t.Fatal("no resolutions exercised")
	}
	if !suppressedSeen {
		t.Error("no suppressed updates exercised; the meta-less RESOLVE path never ran")
	}
}

// TestBpredProbeSteadyStateZeroAllocs extends the zero-alloc pin to a
// probed machine with the deepest predictor (ISL-TAGE, every hook
// active): once warmed up, the cycle loop with full observation must not
// allocate.
func TestBpredProbeSteadyStateZeroAllocs(t *testing.T) {
	prog, m := allocProbeProgram(50_000_000)
	cfg := DefaultConfig(4)
	cfg.Probe = true
	ladder := bpred.LadderSpecs()
	cfg.NewPredictor = ladder[len(ladder)-1].New
	mach := New(ir.MustLinearize(prog), m, cfg)
	checkSteadyZeroAllocs(t, mach, "probed steady-state cycle loop")
}
