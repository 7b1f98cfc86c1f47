package attr

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCauseKeysDistinct(t *testing.T) {
	seen := map[string]Cause{}
	for _, c := range Causes() {
		k := c.Key()
		if k == "" {
			t.Fatalf("cause %d has no key", c)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("causes %d and %d share key %q", prev, c, k)
		}
		seen[k] = c
	}
	if len(seen) != int(NumCauses) {
		t.Fatalf("got %d keys, want %d", len(seen), NumCauses)
	}
}

// TestConservation pins the core invariant: however charges are mixed,
// slots sum to cycles × width and the per-ID splits match the aggregates.
func TestConservation(t *testing.T) {
	r := NewRecorder(16, 3, 4)
	r.ChargeCycles(4, Fetch, 0, 1)         // full issue: cause ignored
	r.ChargeCycles(2, CondWait, 1, 1)      // 2 slots wait on branch 1
	r.ChargeCycles(0, ResolveWindow, 2, 1) // 4 slots in branch 2's window
	r.ChargeCycles(1, LoadWait, 7, 1)      // 3 slots wait on the load at pc 7
	r.ChargeCycles(0, BrMispredict, 3, 1)  // refill bubble for branch 3
	r.ChargeCycles(0, ResMispredict, 2, 1) // resolve-fire bubble for branch 2
	r.ChargeCycles(3, FUContention, 0, 1)  // structural
	r.MoveWrongPath(BrMispredict, 3, 2)    // 2 issued slots were wrong-path
	r.NoteDBBOverflow()

	rep := r.Report()
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 7 || rep.Width != 4 {
		t.Fatalf("cycles=%d width=%d, want 7 and 4", rep.Cycles, rep.Width)
	}
	if got := rep.SlotSum(); got != 28 {
		t.Fatalf("slot sum %d, want 28", got)
	}
	if got := rep.Slots[Base.Key()]; got != 8 {
		t.Fatalf("base slots %d, want 10 issued - 2 wrong-path = 8", got)
	}
	if b := rep.Branch(3); b.BrMispredict != 6 {
		t.Fatalf("branch 3 br_mispredict %d, want 4 bubble + 2 wrong-path = 6", b.BrMispredict)
	}
	if b := rep.Branch(2); b.ResMispredict != 4 || b.ResolveWindow != 4 {
		t.Fatalf("branch 2 = %+v, want res_mispredict 4 and resolve_window 4", b)
	}
	if rep.DBBOverflows != 1 {
		t.Fatalf("dbb overflows %d, want 1", rep.DBBOverflows)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder(8, 2, 2)
	r.ChargeCycles(1, LoadWait, 5, 1)
	r.ChargeCycles(0, CondWait, 1, 1)
	rep := r.Report()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", &back, rep)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTopTables(t *testing.T) {
	r := NewRecorder(10, 4, 4)
	r.ChargeCycles(0, CondWait, 1, 1)     // branch 1: 4
	r.ChargeCycles(0, BrMispredict, 2, 1) // branch 2: 4
	r.ChargeCycles(2, BrMispredict, 2, 1) // branch 2: +2 = 6
	r.ChargeCycles(0, LoadWait, 3, 1)     // pc 3: 4
	r.ChargeCycles(2, LoadWait, 9, 1)     // pc 9: 2
	rep := r.Report()
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}

	top := rep.TopBranches(1)
	if len(top) != 1 || top[0].ID != 2 || top[0].BrMispredict != 6 {
		t.Fatalf("top branch = %+v, want branch 2 with 6 slots", top)
	}
	loads := rep.TopLoads(0)
	if len(loads) != 2 || loads[0].PC != 3 || loads[1].PC != 9 {
		t.Fatalf("top loads = %+v, want pcs 3 then 9", loads)
	}

	if got := rep.Stack(); got[CondWait] != 4 || got[BrMispredict] != 6 {
		t.Fatalf("stack = %v", got)
	}
}

// TestChargeCyclesBulk pins that charging k cycles at once books exactly
// what k single-cycle charges book, for every cause and issue count.
func TestChargeCyclesBulk(t *testing.T) {
	const width, k = 4, 37
	for _, c := range Causes() {
		for issued := 0; issued <= width; issued++ {
			bulk, single := NewRecorder(16, 3, width), NewRecorder(16, 3, width)
			bulk.ChargeCycles(issued, c, 2, k)
			for i := 0; i < k; i++ {
				single.ChargeCycles(issued, c, 2, 1)
			}
			if a, b := bulk.Report(), single.Report(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s issued=%d: bulk %+v, single %+v", c.Key(), issued, a, b)
			}
			if err := bulk.Report().Check(); err != nil {
				t.Fatalf("%s issued=%d: %v", c.Key(), issued, err)
			}
		}
	}
}
