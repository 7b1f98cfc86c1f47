package harness

import (
	"bytes"
	"testing"

	"vanguard/internal/exec"
	"vanguard/internal/workload"
)

// TestKernelDispatchDifferential is the end-to-end dispatch
// differential: the full harness pipeline — build, profile, transform,
// golden check, timing simulation, report — must produce byte-identical
// reports (modulo the engine section) under kernel and switch dispatch,
// on one worker and on eight. Runs under -race in `make check`, so it
// also audits the compiled kernel table, which every simulation of one
// patched image shares, for cross-goroutine sharing hazards.
func TestKernelDispatchDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	run := func(d exec.Dispatch, jobs int) []byte {
		o := fastOptions()
		o.Dispatch = d
		o.Jobs = jobs
		rs, err := RunBenchmarks(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, rs)
	}

	ref := run(exec.DispatchSwitch, 1)
	for _, jobs := range []int{1, 8} {
		if got := run(exec.DispatchKernels, jobs); !bytes.Equal(ref, got) {
			t.Fatalf("kernel dispatch (jobs=%d) diverged from switch reference:\n--- switch ---\n%s\n--- kernels ---\n%s",
				jobs, ref, got)
		}
	}
}
