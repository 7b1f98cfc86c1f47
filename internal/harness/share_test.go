package harness

import (
	"strings"
	"testing"

	"vanguard/internal/workload"
)

// sharingOptions are reduced inputs for the job-set sharing tests: two
// REF inputs, so sharing is per input, at iteration counts that keep the
// three runs of each study cheap under -race.
func sharingOptions() Options {
	o := fastOptions()
	o.TrainInput.Iters = 200
	for i := range o.RefInputs {
		o.RefInputs[i].Iters = 200
	}
	return o
}

// checkStudySharing runs one study's jobs three ways: as one job set at
// Jobs 1 and at Jobs 2, and each job alone in its own job set. Within
// the Jobs 1 set, jobs of one workload must share the TRAIN products,
// and jobs of one workload and REF input the REF products, each built;
// no other pair may share. All three renderings must be equal.
func checkStudySharing(t *testing.T, jobsFor func(Options) ([]*benchJob, error), render func([]*BenchResult) string) {
	t.Helper()
	run := func(jobs int, alone bool) ([]*benchJob, string) {
		o := sharingOptions()
		o.Jobs = jobs
		js, err := jobsFor(o)
		if err != nil {
			t.Fatal(err)
		}
		var rs []*BenchResult
		if alone {
			for _, j := range js {
				r, err := runBenchJobs([]*benchJob{j}, o)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, r...)
			}
		} else if rs, err = runBenchJobs(js, o); err != nil {
			t.Fatal(err)
		}
		return js, render(rs)
	}

	js, serial := run(1, false)
	for ai, a := range js {
		if tr := a.arts.train; tr.prog == nil || tr.im == nil || tr.mem == nil {
			t.Fatalf("job %d (%s): TRAIN products not built", ai, a.c.Name)
		}
		for ii, ia := range a.arts.inputs {
			if ia.refMem == nil || ia.gold == nil {
				t.Fatalf("job %d (%s) input %d: REF products not built", ai, a.c.Name, ii)
			}
		}
		for _, b := range js[ai+1:] {
			same := a.c.Name == b.c.Name
			if (a.arts.train == b.arts.train) != same {
				t.Errorf("%s and %s: TRAIN products shared = %v, want %v",
					a.c.Name, b.c.Name, a.arts.train == b.arts.train, same)
			}
			for i, in := range a.o.RefInputs {
				for k, in2 := range b.o.RefInputs {
					want := same && in == in2
					if got := a.arts.inputs[i] == b.arts.inputs[k]; got != want {
						t.Errorf("%s input %v and %s input %v: REF products shared = %v, want %v",
							a.c.Name, in, b.c.Name, in2, got, want)
					}
				}
			}
		}
	}
	if _, parallel := run(2, false); parallel != serial {
		t.Errorf("Jobs 2 rendering differs from Jobs 1:\n--- jobs=1 ---\n%s--- jobs=2 ---\n%s", serial, parallel)
	}
	if _, alone := run(1, true); alone != serial {
		t.Errorf("jobs run one at a time render differently from one job set:\n--- shared ---\n%s--- alone ---\n%s", serial, alone)
	}
}

func TestJobSetSharingSensitivity(t *testing.T) {
	names := []string{"sjeng", "mcf"}
	checkStudySharing(t,
		func(o Options) ([]*benchJob, error) { return sensitivityJobs(names, o) },
		func(rs []*BenchResult) string {
			var b strings.Builder
			WriteSensitivity(&b, sensitivityRows(names, rs))
			return b.String()
		})
}

func TestJobSetSharingSweep(t *testing.T) {
	names := []string{"h264ref", "mcf"}
	labels := []string{"dbb=4", "dbb=16"}
	checkStudySharing(t,
		func(o Options) ([]*benchJob, error) {
			a, b := o, o
			a.DBBEntries, b.DBBEntries = 4, 16
			return sweepJobs(names, []Options{a, b})
		},
		func(rs []*BenchResult) string {
			var b strings.Builder
			WriteAblation(&b, "dbb", sweepPoints(names, labels, rs))
			return b.String()
		})
}

func TestJobSetSharingICache(t *testing.T) {
	cs := []workload.Config{mustBench(t, "libquantum"), mustBench(t, "mcf")}
	checkStudySharing(t,
		func(o Options) ([]*benchJob, error) { return icacheJobs(cs, o), nil },
		func(rs []*BenchResult) string {
			var b strings.Builder
			WriteICacheStudy(&b, icacheRows(cs, rs))
			return b.String()
		})
}
