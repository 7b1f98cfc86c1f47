package sched

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/profile"
	"vanguard/internal/workload"
)

func TestLoadsScheduledEarly(t *testing.T) {
	// add; add; ld; use(ld) — the load should float to the front so its
	// latency overlaps the adds.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Addi(isa.R(2), isa.R(2), 1),
		ir.Addi(isa.R(3), isa.R(3), 1),
		ir.Ld(isa.R(4), isa.R(1), 0),
		ir.Add(isa.R(5), isa.R(4), isa.R(2)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LD {
		t.Errorf("load not hoisted to front:\n%v", b.Instrs)
	}
	if b.Instrs[len(b.Instrs)-1].Op != isa.ADD {
		t.Errorf("dependent use must stay last:\n%v", b.Instrs)
	}
}

func TestTerminatorStaysLast(t *testing.T) {
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Br(isa.R(9), 0),
	}}
	b.Instrs = append([]isa.Instr{
		ir.Ld(isa.R(4), isa.R(1), 0),
		ir.Addi(isa.R(2), isa.R(2), 1),
	}, b.Instrs...)
	Block(b, DefaultModel(4))
	if last := b.Instrs[len(b.Instrs)-1]; last.Op != isa.BR {
		t.Errorf("terminator moved: %v", b.Instrs)
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	// st [r1+0]; ld [r1+8] — provably disjoint: load may pass the store.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(1), 8),
		ir.Add(isa.R(4), isa.R(3), isa.R(3)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LD {
		t.Errorf("disjoint load did not pass the store: %v", b.Instrs)
	}
	// Same offset: must stay ordered.
	b2 := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(1), 0),
	}}
	Block(b2, DefaultModel(4))
	if b2.Instrs[0].Op != isa.ST {
		t.Errorf("aliasing load passed the store: %v", b2.Instrs)
	}
	// Different bases: conservatively ordered.
	b3 := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(5), 0),
	}}
	Block(b3, DefaultModel(4))
	if b3.Instrs[0].Op != isa.ST {
		t.Errorf("may-alias load passed the store: %v", b3.Instrs)
	}
}

func TestCallIsBarrier(t *testing.T) {
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Addi(isa.R(2), isa.R(2), 1),
		ir.Call(0),
		ir.Ld(isa.R(4), isa.R(1), 0),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[1].Op != isa.CALL {
		t.Errorf("call moved: %v", b.Instrs)
	}
}

// TestSchedulingPreservesSemantics runs a program before/after scheduling
// and compares results.
func TestSchedulingPreservesSemantics(t *testing.T) {
	build := func() *ir.Program {
		f := &ir.Func{Name: "main"}
		init := f.AddBlock("init")
		body := f.AddBlock("body")
		end := f.AddBlock("end")
		f.Emit(init, ir.Li(isa.R(1), mem.FaultBoundary), ir.Li(isa.R(2), 3))
		f.Emit(body,
			ir.Addi(isa.R(3), isa.R(2), 10),
			ir.Ld(isa.R(4), isa.R(1), 0),
			ir.Mul(isa.R(5), isa.R(3), isa.R(2)),
			ir.Add(isa.R(6), isa.R(4), isa.R(5)),
			ir.St(isa.R(1), 8, isa.R(6)),
			ir.Ld(isa.R(7), isa.R(1), 8), // must see the store above
			ir.Addi(isa.R(7), isa.R(7), 1),
			ir.St(isa.R(1), 16, isa.R(7)),
		)
		f.Emit(end, ir.Halt())
		return &ir.Program{Funcs: []*ir.Func{f}}
	}
	gm := mem.New()
	gm.MustStore(mem.FaultBoundary, 100)
	if _, _, err := interp.Run(ir.MustLinearize(build()), gm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	p := build()
	Program(p, DefaultModel(4))
	sm := mem.New()
	sm.MustStore(mem.FaultBoundary, 100)
	if _, _, err := interp.Run(ir.MustLinearize(p), sm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	if !sm.Equal(gm) {
		t.Errorf("scheduling changed semantics:\n%s", p)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	b := &ir.Block{}
	Block(b, DefaultModel(2))
	if len(b.Instrs) != 0 {
		t.Error("empty block changed")
	}
	b2 := &ir.Block{Instrs: []isa.Instr{ir.Nop()}}
	Block(b2, DefaultModel(2))
	if len(b2.Instrs) != 1 {
		t.Error("singleton block changed")
	}
}

func TestCMOVDependences(t *testing.T) {
	// cmov reads its destination: a prior write to the dest register must
	// stay ordered before it, and a later read after it.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Li(isa.R(3), 7),
		{Op: isa.CMOV, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2), Target: -1},
		ir.Add(isa.R(4), isa.R(3), isa.R(3)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LI || b.Instrs[1].Op != isa.CMOV || b.Instrs[2].Op != isa.ADD {
		t.Errorf("cmov dependences violated: %v", b.Instrs)
	}
}

// mustOrder reports whether j (later) must stay after i (earlier).
func mustOrder(i, j isa.Instr) bool {
	di, dj := i.Def(), j.Def()
	iu1, iu2, iu3 := i.Uses()
	ju1, ju2, ju3 := j.Uses()
	if di != isa.NoReg && (ju1 == di || ju2 == di || ju3 == di || dj == di) {
		return true // RAW or WAW
	}
	if dj != isa.NoReg && (dj == iu1 || dj == iu2 || dj == iu3) {
		return true // WAR
	}
	// Memory ordering.
	if i.IsMem() && j.IsMem() && (i.IsStore() || j.IsStore()) {
		if i.Src1 == j.Src1 && i.Imm != j.Imm {
			return false // same base, provably disjoint words
		}
		return true
	}
	return false
}

// referenceRegion is the scheduler's original quadratic list scheduler:
// an edge for every ordered pair, and a full rescan and sort of the ready
// list every cycle. The near-linear region must reproduce its output
// exactly.
func referenceRegion(ins []isa.Instr, m Model) []isa.Instr {
	n := len(ins)
	if n <= 1 {
		return append([]isa.Instr(nil), ins...)
	}
	// Dependence edges and critical-path priorities.
	succs := make([][]int, n)
	npreds := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mustOrder(ins[i], ins[j]) {
				succs[i] = append(succs[i], j)
				npreds[j]++
			}
		}
	}
	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		p := 0
		for _, s := range succs[i] {
			if prio[s] > p {
				p = prio[s]
			}
		}
		prio[i] = p + m.latency(ins[i])
	}

	// Greedy machine-model walk.
	readyAt := make([]int, n) // earliest cycle each instruction may start
	done := make([]bool, n)
	var order []int
	cycle := 0
	for len(order) < n {
		var ready []int
		for i := 0; i < n; i++ {
			if !done[i] && npreds[i] == 0 && readyAt[i] <= cycle {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(x, y int) bool {
			if prio[ready[x]] != prio[ready[y]] {
				return prio[ready[x]] > prio[ready[y]]
			}
			return ready[x] < ready[y] // stable: original order
		})
		var used [isa.NumFUClasses]int
		issued := 0
		for _, i := range ready {
			if issued >= m.Width {
				break
			}
			fu := ins[i].Op.Unit()
			limit := m.IntUnits
			switch fu {
			case isa.FUMem:
				limit = m.MemUnits
			case isa.FUFP:
				limit = m.FPUnits
			}
			if used[fu] >= limit {
				continue
			}
			used[fu]++
			issued++
			done[i] = true
			order = append(order, i)
			for _, s := range succs[i] {
				npreds[s]--
				if t := cycle + m.latency(ins[i]); t > readyAt[s] {
					readyAt[s] = t
				}
			}
		}
		cycle++
	}
	out := make([]isa.Instr, n)
	for k, i := range order {
		out[k] = ins[i]
	}
	return out
}

// checkRegion schedules one region both ways and reports the first
// position where the two orders differ.
func checkRegion(t *testing.T, s *scheduler, ins []isa.Instr, what string) {
	t.Helper()
	got := s.region(nil, ins)
	want := referenceRegion(ins, s.m)
	if !slices.Equal(got, want) {
		k := 0
		for k < len(got) && got[k] == want[k] {
			k++
		}
		t.Fatalf("%s: %d-instruction region diverges from the reference at position %d:\ngot  %v\nwant %v",
			what, len(ins), k, got, want)
	}
}

// unscheduled builds a benchmark's speculated baseline and transformed
// programs the way harness.BuildBinaries does, stopping before scheduling.
func unscheduled(tb testing.TB, c workload.Config, train workload.Input) (base, exp *ir.Program) {
	tb.Helper()
	p, m := c.Generate(train)
	prof, err := profile.Collect(ir.MustLinearize(p), m, bpred.NewDefault(), 200_000_000)
	if err != nil {
		tb.Fatalf("%s: profile: %v", c.Name, err)
	}
	base = p.Clone()
	if _, err := core.SpeculateBiasedBranches(base, prof, core.DefaultSpeculateOptions()); err != nil {
		tb.Fatalf("%s: speculation: %v", c.Name, err)
	}
	exp = base.Clone()
	if _, err := core.Transform(exp, prof, core.DefaultOptions()); err != nil {
		tb.Fatalf("%s: transform: %v", c.Name, err)
	}
	return base, exp
}

// TestScheduleMatchesReference checks every region of the speculated
// baseline and transformed programs of every benchmark against the
// reference scheduler, one parallel subtest per benchmark. The TRAIN
// inputs are the ones bench/run.sh builds at its seeds 0 and 1; -short
// checks seed 0 of the benchmarks outside int2006, whose replicated
// images hold the largest blocks.
func TestScheduleMatchesReference(t *testing.T) {
	seeds, suites := []int64{101, 1101}, workload.AllSuites()
	if testing.Short() {
		seeds, suites = seeds[:1], suites[1:]
	}
	for _, suite := range suites {
		for _, c := range workload.Suite(suite) {
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				s := &scheduler{m: DefaultModel(4)}
				for _, seed := range seeds {
					base, exp := unscheduled(t, c, workload.Input{Seed: seed, Iters: 400})
					for bi, p := range []*ir.Program{base, exp} {
						what := fmt.Sprintf("seed %d %s", seed, [2]string{"base", "exp"}[bi])
						for _, f := range p.Funcs {
							for _, b := range f.Blocks {
								start := 0
								for i, ins := range b.Instrs {
									if ins.IsControl() {
										checkRegion(t, s, b.Instrs[start:i], what)
										start = i + 1
									}
								}
								checkRegion(t, s, b.Instrs[start:], what)
							}
						}
					}
				}
			})
		}
	}
}

// fuzzOps are the opcodes a fuzzed region draws from: every latency and
// unit class, the memory operations and CMOV's read of its destination.
var fuzzOps = []isa.Op{isa.ADD, isa.ADDI, isa.MUL, isa.DIV, isa.LI, isa.MOV, isa.NOP,
	isa.FADD, isa.FDIV, isa.LD, isa.LDS, isa.ST, isa.CMOV}

// decodeRegion turns fuzz bytes into a model and a region: five model
// bytes (width 1-8, INT/MEM/FP units 1-4, load latency 1-6), then five
// bytes per instruction (opcode, three registers among r0-r7, and a
// word offset 0-24).
func decodeRegion(data []byte) (Model, []isa.Instr, bool) {
	if len(data) < 5 {
		return Model{}, nil, false
	}
	m := Model{
		Width:       1 + int(data[0]%8),
		IntUnits:    1 + int(data[1]%4),
		MemUnits:    1 + int(data[2]%4),
		FPUnits:     1 + int(data[3]%4),
		LoadLatency: 1 + int(data[4]%6),
	}
	var ins []isa.Instr
	for b := data[5:]; len(b) >= 5 && len(ins) < 64; b = b[5:] {
		ins = append(ins, isa.Instr{
			Op:     fuzzOps[int(b[0])%len(fuzzOps)],
			Dst:    isa.Reg(b[1] % 8),
			Src1:   isa.Reg(b[2] % 8),
			Src2:   isa.Reg(b[3] % 8),
			Imm:    8 * int64(b[4]%4),
			Target: -1,
		})
	}
	return m, ins, true
}

// encodeRegion is decodeRegion's inverse up to what scheduling ignores:
// ALU immediates and operands the opcode does not read or write.
func encodeRegion(m Model, ins []isa.Instr) []byte {
	data := []byte{byte(m.Width - 1), byte(m.IntUnits - 1), byte(m.MemUnits - 1),
		byte(m.FPUnits - 1), byte(m.LoadLatency - 1)}
	for _, in := range ins {
		data = append(data, byte(slices.Index(fuzzOps, in.Op)), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Imm/8))
	}
	return data
}

func FuzzScheduleMatchesReference(f *testing.F) {
	// The straight-line regions of the unit tests above.
	for _, ins := range [][]isa.Instr{
		{ir.Addi(isa.R(2), isa.R(2), 1), ir.Addi(isa.R(3), isa.R(3), 1), ir.Ld(isa.R(4), isa.R(1), 0), ir.Add(isa.R(5), isa.R(4), isa.R(2))},
		{ir.Ld(isa.R(4), isa.R(1), 0), ir.Addi(isa.R(2), isa.R(2), 1)},
		{ir.St(isa.R(1), 0, isa.R(2)), ir.Ld(isa.R(3), isa.R(1), 8), ir.Add(isa.R(4), isa.R(3), isa.R(3))},
		{ir.St(isa.R(1), 0, isa.R(2)), ir.Ld(isa.R(3), isa.R(1), 0)},
		{ir.St(isa.R(1), 0, isa.R(2)), ir.Ld(isa.R(3), isa.R(5), 0)},
		{ir.Addi(isa.R(3), isa.R(2), 10), ir.Ld(isa.R(4), isa.R(1), 0), ir.Mul(isa.R(5), isa.R(3), isa.R(2)),
			ir.Add(isa.R(6), isa.R(4), isa.R(5)), ir.St(isa.R(1), 8, isa.R(6)), ir.Ld(isa.R(7), isa.R(1), 8),
			ir.Addi(isa.R(7), isa.R(7), 1), ir.St(isa.R(1), 16, isa.R(7))},
		{ir.Li(isa.R(3), 7), {Op: isa.CMOV, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2), Target: -1},
			ir.Add(isa.R(4), isa.R(3), isa.R(3))},
	} {
		for _, w := range []int{1, 2, 4, 8} {
			f.Add(encodeRegion(DefaultModel(w), ins))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ins, ok := decodeRegion(data)
		if !ok {
			t.Skip()
		}
		checkRegion(t, &scheduler{m: m}, ins, fmt.Sprintf("%+v", m))
	})
}

// BenchmarkSchedGobmk schedules gobmk's speculated baseline and
// transformed programs, the build-side scheduling of one benchmark
// (gobmk's replicated image holds the largest block of any benchmark).
func BenchmarkSchedGobmk(b *testing.B) {
	c, ok := workload.ByName("gobmk")
	if !ok {
		b.Fatal("no gobmk workload")
	}
	base, exp := unscheduled(b, c, workload.Input{Seed: 101, Iters: 400})
	instrs := base.NumInstrs() + exp.NumInstrs()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		pb, pe := base.Clone(), exp.Clone()
		b.StartTimer()
		Program(pb, DefaultModel(4))
		Program(pe, DefaultModel(4))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
}
