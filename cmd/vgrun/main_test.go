package main

import (
	"os"
	"strings"
	"testing"

	"vanguard/internal/asm"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/sched"
)

// TestCheckFlags pins that every flag -attr-diff would silently ignore,
// and -attr-csv without -attr-diff, is a usage error naming the flag,
// while the combinations that take effect pass.
func TestCheckFlags(t *testing.T) {
	for _, name := range append([]string{"transform"}, attrDiffIgnores...) {
		err := checkFlags(map[string]bool{"attr-diff": true, name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-attr-diff -%s: error %v, want one naming -%s", name, err, name)
		}
		if err := checkFlags(map[string]bool{name: true}); err != nil {
			t.Errorf("-%s alone: %v", name, err)
		}
		// A flag given at its default value changes nothing.
		if err := checkFlags(map[string]bool{"attr-diff": true, name: false}); err != nil {
			t.Errorf("-attr-diff with -%s at its default: %v", name, err)
		}
	}
	if err := checkFlags(map[string]bool{"attr-csv": true}); err == nil || !strings.Contains(err.Error(), "-attr-csv") {
		t.Errorf("-attr-csv without -attr-diff: error %v, want one naming -attr-csv", err)
	}
	for _, ok := range []map[string]bool{
		{"attr-diff": true, "attr-csv": true, "width": true, "attr": true, "no-cache": true},
		{"transform": true, "json": true, "attr": true, "pipeview": true, "trace": true},
		{},
	} {
		if err := checkFlags(ok); err != nil {
			t.Errorf("%v: unexpected error %v", ok, err)
		}
	}
}

// TestDiffBaselineScheduled pins the plain run's binary, which main also
// hands to -attr-diff as its baseline, to the scheduled program: on
// sparse.s at width 4 its cycle count is that of the program scheduled
// alone, not of the unscheduled one, so the change that -transform and
// -attr-diff show against it is the transformation's and not the
// scheduler's. build leaves its input untouched and decomposes only under
// transform.
func TestDiffBaselineScheduled(t *testing.T) {
	src, err := os.ReadFile("../../examples/asm/sparse.s")
	if err != nil {
		t.Fatal(err)
	}
	parse := func() *ir.Program {
		p, err := asm.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const width, maxInstrs = 4, 50_000_000
	cycles := func(p *ir.Program) int64 {
		st, err := pipeline.New(ir.MustLinearize(p), mem.New(), pipeline.DefaultConfig(width)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	p := parse()
	plain, _, rep := build(p, false, maxInstrs, width)
	if rep != nil {
		t.Errorf("plain build transformed the program (%d branches converted)", len(rep.Converted))
	}
	exp, _, rep := build(p, true, maxInstrs, width)
	if rep == nil || len(rep.Converted) == 0 {
		t.Fatal("-transform build converted no branch of sparse.s")
	}
	unscheduled := cycles(parse())
	if got := cycles(p); got != unscheduled {
		t.Errorf("build changed its input: %d cycles, want %d", got, unscheduled)
	}
	scheduled := parse()
	sched.Program(scheduled, sched.DefaultModel(width))
	want := cycles(scheduled)
	if got := cycles(plain); got != want {
		t.Errorf("plain run takes %d cycles, the scheduled program %d (unscheduled: %d)", got, want, unscheduled)
	}
	if want == unscheduled {
		t.Errorf("scheduling sparse.s changes nothing (%d cycles): the test cannot tell the binaries apart", want)
	}
	if got := cycles(exp); got >= want {
		t.Errorf("vanguard binary takes %d cycles, not fewer than the baseline's %d", got, want)
	}
}
