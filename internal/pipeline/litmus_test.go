package pipeline

import (
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// Timing litmus tests: crafted programs whose cycle counts follow in
// closed form from the machine description (DESIGN.md §2 and the paper's
// Table 1), asserted exactly under both frozen-cycle skipping and the
// per-cycle stepper. Each recovers one machine parameter from timing and
// checks it against the Table 1 value written out below, not against
// DefaultConfig, so a config that drifts from the paper fails here.
//
// The derivations share three rules of the model:
//   - within a cycle, issue runs before fetch, so an instruction fetched at
//     cycle c is first considered at c+D-1, D being the front-end depth;
//   - a committed HALT drains the machine and the run ends one cycle after
//     it issues, so a run's cycle count is the HALT's issue cycle plus one;
//   - the caches are warmed before the run (warmCaches), so no fetch group
//     pays an I-cache miss and the named data lines hit in L1D.

// Table 1 values the litmus tests recover.
const (
	table1FrontEndDepth = 5
	table1IntUnits      = 2
	table1MemUnits      = 2
	table1FPUnits       = 4
	table1L1DLatency    = 4
)

// litmusImage lays instrs out at PC 0 with their Targets as absolute PCs.
func litmusImage(instrs ...isa.Instr) *ir.Image {
	return &ir.Image{Instrs: instrs}
}

// warmCaches brings every I-cache line of the image and the named data
// addresses into their L1s.
func warmCaches(mach *Machine, im *ir.Image, data ...uint64) {
	for pc := range im.Instrs {
		mach.Hier.L1I.Access(im.PCAddr(pc))
	}
	for _, a := range data {
		mach.Hier.L1D.Access(a)
	}
}

// litmusCycles runs im on cfg under frozen-cycle skipping and under the
// per-cycle stepper, fails t unless both halt cleanly in the same number
// of cycles, and returns that count. m (nil for an empty memory) is
// cloned per run; data names the L1D lines to warm.
func litmusCycles(t *testing.T, im *ir.Image, cfg Config, m *mem.Memory, data ...uint64) int64 {
	t.Helper()
	if m == nil {
		m = mem.New()
	}
	var cycles [2]int64
	for i, c := range []Config{cfg, Stepper(cfg)} {
		mach := New(im, m.Clone(), c)
		warmCaches(mach, im, data...)
		st, err := mach.Run()
		if err != nil {
			t.Fatalf("run (stepper=%v): %v", c.stepper, err)
		}
		if !st.Halted {
			t.Fatalf("run (stepper=%v) did not halt", c.stepper)
		}
		cycles[i] = st.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("skip ran %d cycles, stepper %d", cycles[0], cycles[1])
	}
	return cycles[0]
}

// independentLis returns n LI ops with no source operands, rotating over
// eight destinations so no op waits on another.
func independentLis(n int) []isa.Instr {
	out := make([]isa.Instr, n)
	for i := range out {
		out[i] = ir.Li(isa.R(1+i%8), int64(i))
	}
	return out
}

// TestLitmusFrontEndDepth reads the front-end depth off a lone HALT:
// fetched at cycle 0, it issues at D-1 and the run ends at D.
func TestLitmusFrontEndDepth(t *testing.T) {
	im := litmusImage(ir.Halt())
	if got := litmusCycles(t, im, DefaultConfig(4), nil); got != table1FrontEndDepth {
		t.Errorf("recovered front-end depth %d, Table 1 says %d", got, table1FrontEndDepth)
	}
	for _, d := range []int{2, 9} {
		cfg := DefaultConfig(4)
		cfg.FrontEndDepth = d
		if got := litmusCycles(t, im, cfg, nil); got != int64(d) {
			t.Errorf("FrontEndDepth %d: a lone HALT ran %d cycles, want %d", d, got, d)
		}
	}
}

// TestLitmusIssueWidth recovers the issue width from independent ALU ops
// fetched in groups that straddle a 64-byte I-cache line. A JMP at PC 0
// (its own fetch group, cycle 0) lands on PC 14, two instructions before
// the line boundary at PC 16, so every later group of W starts two ops
// into a line at W = 4 and crosses into the next line mid-group. With as
// many INT units as slots, op j (the HALT is j = n) is fetched at
// 1 + j/W and issues D-1 cycles later: cycles = 1 + n/W + D.
func TestLitmusIssueWidth(t *testing.T) {
	const start, n = 14, 21
	instrs := make([]isa.Instr, start, start+n+1)
	instrs[0] = ir.Jmp(start)
	for pc := 1; pc < start; pc++ {
		instrs[pc] = ir.Nop() // never fetched
	}
	instrs = append(instrs, independentLis(n)...)
	instrs = append(instrs, ir.Halt())
	im := litmusImage(instrs...)
	for _, w := range []int{2, 4, 8} {
		cfg := DefaultConfig(w)
		cfg.IntUnits = w
		want := int64(1 + n/w + table1FrontEndDepth)
		if got := litmusCycles(t, im, cfg, nil); got != want {
			t.Errorf("width %d: %d independent ops ran %d cycles, want %d", w, n, got, want)
		}
	}
}

// TestLitmusUnitCounts recovers the INT, MEM and FP unit counts on an
// 8-wide machine, whose fetch and issue width outrun every class. n ops
// of one class issue U per cycle from cycle D-1, op j at D-1 + j/U. The
// closing HALT is an INT op: after n INT ops it is op n of its class
// (cycles = D + n/U); after MEM or FP ops it issues in the last op's
// cycle (cycles = D + (n-1)/U).
func TestLitmusUnitCounts(t *testing.T) {
	const n, base = 23, uint64(1 << 20)
	loads := make([]isa.Instr, n)
	fops := make([]isa.Instr, n)
	for i := range loads {
		// r0 is never written, so every address is base.
		loads[i] = ir.Ld(isa.R(1+i%8), isa.R(0), int64(base))
		fops[i] = ir.Fop(isa.FADD, isa.F(i%8), isa.F(20), isa.F(21))
	}
	m := mem.New()
	m.MustStore(base, 7)
	cases := []struct {
		class  string
		body   []isa.Instr
		units  int
		cycles int64
	}{
		{"INT", independentLis(n), table1IntUnits, int64(table1FrontEndDepth + n/table1IntUnits)},
		{"MEM", loads, table1MemUnits, int64(table1FrontEndDepth + (n-1)/table1MemUnits)},
		{"FP", fops, table1FPUnits, int64(table1FrontEndDepth + (n-1)/table1FPUnits)},
	}
	for _, c := range cases {
		im := litmusImage(append(append([]isa.Instr(nil), c.body...), ir.Halt())...)
		if got := litmusCycles(t, im, DefaultConfig(8), m, base); got != c.cycles {
			t.Errorf("%s: %d independent ops ran %d cycles, want %d (%d units, Table 1)",
				c.class, n, got, c.cycles, c.units)
		}
	}
}

// TestLitmusFetchBuffer recovers fetch-buffer back-pressure. An entry
// stays in the buffer from its fetch until it issues D-1 cycles later, so
// a B-entry buffer with B at most the width fills in one cycle and
// refills only when issue drains it: op j is fetched at (D-1)*(j/B) and
// cycles = (D-1)*(n/B + 1) + 1.
func TestLitmusFetchBuffer(t *testing.T) {
	const n = 14
	im := litmusImage(append(independentLis(n), ir.Halt())...)
	for _, b := range []int{1, 2, 3, 4} {
		cfg := DefaultConfig(4)
		cfg.IntUnits = 4
		cfg.FetchBufEntries = b
		want := int64((table1FrontEndDepth-1)*(n/b+1) + 1)
		if got := litmusCycles(t, im, cfg, nil); got != want {
			t.Errorf("%d-entry fetch buffer: %d ops ran %d cycles, want %d", b, n, got, want)
		}
	}
}

// TestLitmusTakenJump: a taken JMP ends its fetch group. k blocks of
// (LI, JMP to the next block), each two instructions with a never-fetched
// NOP between, then a HALT: one block per fetch cycle on a 4-wide machine
// that could fetch two blocks a cycle, so the HALT is fetched at cycle k
// and cycles = k + D.
func TestLitmusTakenJump(t *testing.T) {
	const k = 6
	var instrs []isa.Instr
	for i := 0; i < k; i++ {
		next := len(instrs) + 3
		instrs = append(instrs, ir.Li(isa.R(1+i%8), int64(i)), ir.Jmp(next), ir.Nop())
	}
	instrs = append(instrs, ir.Halt())
	cfg := DefaultConfig(4)
	cfg.IntUnits = 4
	want := int64(k + table1FrontEndDepth)
	if got := litmusCycles(t, litmusImage(instrs...), cfg, nil); got != want {
		t.Errorf("%d taken jumps ran %d cycles, want %d", k, got, want)
	}
}

// TestLitmusL1DLoadToUse recovers the L1D load-to-use latency from a
// pointer chase on a warm line holding its own address. LI r1 issues at
// D-1 with r1 ready one cycle later; each load then issues L cycles
// after the one it depends on, and the HALT issues with the last load:
// cycles = D + 1 + L*(n-1).
func TestLitmusL1DLoadToUse(t *testing.T) {
	const n, addr = 10, uint64(1 << 20)
	instrs := []isa.Instr{ir.Li(isa.R(1), int64(addr))}
	for i := 0; i < n; i++ {
		instrs = append(instrs, ir.Ld(isa.R(1), isa.R(1), 0))
	}
	instrs = append(instrs, ir.Halt())
	m := mem.New()
	m.MustStore(addr, int64(addr))
	want := int64(table1FrontEndDepth + 1 + table1L1DLatency*(n-1))
	if got := litmusCycles(t, litmusImage(instrs...), DefaultConfig(4), m, addr); got != want {
		t.Errorf("%d-load L1D pointer chase ran %d cycles, want %d", n, got, want)
	}
}
