package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B
	return New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64, Latency: 4})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access must hit")
	}
	if !c.Access(0x1038) {
		t.Error("same-line access must hit")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Errorf("stats %d/%d, want 3/1", c.Accesses, c.Misses)
	}
	if got := c.MissRate(); got != 1.0/3.0 {
		t.Errorf("miss rate %f", got)
	}
}

func TestSetMapping(t *testing.T) {
	c := small()
	// Lines 0x0000, 0x0040, 0x0080, 0x00C0 map to sets 0,1,2,3.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i * 64))
	}
	for i := 0; i < 4; i++ {
		if !c.Access(uint64(i * 64)) {
			t.Errorf("line %d evicted despite distinct sets", i)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways
	// Three lines in the same set (stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // must evict b (LRU)
	if !c.Access(a) {
		t.Error("a should have survived")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestLookupDoesNotDisturb(t *testing.T) {
	c := small()
	c.Access(0)
	acc, miss := c.Accesses, c.Misses
	if !c.Lookup(0) || c.Lookup(1<<20) {
		t.Error("lookup results wrong")
	}
	if c.Accesses != acc || c.Misses != miss {
		t.Error("Lookup must not touch stats")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(0)
	c.Invalidate(0)
	if c.Lookup(0) {
		t.Error("invalidated line still present")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count must panic")
		}
	}()
	New(Config{SizeBytes: 192, Ways: 1, LineBytes: 64})
}

// Property: a W-way single-set cache behaves as an LRU stack — after
// touching W distinct lines, re-touching them in the same order hits all.
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		const ways = 4
		c := New(Config{SizeBytes: 64 * ways, Ways: ways, LineBytes: 64, Latency: 1})
		r := rand.New(rand.NewSource(seed))
		lines := make([]uint64, ways)
		for i := range lines {
			lines[i] = uint64(i) * 64
		}
		r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		for _, a := range lines {
			c.Access(a)
		}
		for _, a := range lines {
			if !c.Access(a) {
				return false
			}
		}
		// A fifth distinct line evicts exactly the LRU: lines[0] of the
		// second pass (re-touched first, hence oldest).
		c.Access(uint64(ways) * 64)
		return !c.Lookup(lines[0]) || ways != 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewDefault()
	addr := uint64(1 << 20)

	// Cold: L1 miss, L2 miss, L3 miss -> memory.
	ready := h.Data(0, addr)
	if ready != 140 {
		t.Errorf("cold access ready at %d, want 140 (memory)", ready)
	}
	// Now resident everywhere: L1 hit.
	if ready := h.Data(200, addr); ready != 204 {
		t.Errorf("L1 hit ready at %d, want 204", ready)
	}
	// Evict from L1 only: next access is an L2 hit.
	h.L1D.Invalidate(addr)
	if ready := h.Data(300, addr); ready != 312 {
		t.Errorf("L2 hit ready at %d, want 312", ready)
	}
	// Evict L1+L2: L3 hit.
	h.L1D.Invalidate(addr)
	h.L2.Invalidate(addr)
	if ready := h.Data(400, addr); ready != 425 {
		t.Errorf("L3 hit ready at %d, want 425", ready)
	}
}

func TestMissMerging(t *testing.T) {
	h := NewDefault()
	a, b := uint64(1<<20), uint64(1<<20)+8 // same line
	r1 := h.Data(0, a)
	r2 := h.Data(1, b)
	if r2 > r1 {
		t.Errorf("merged access ready at %d, must not exceed the original fill %d", r2, r1)
	}
	if h.MergedMisses != 1 || h.DemandMisses != 1 {
		t.Errorf("merge stats: demand=%d merged=%d", h.DemandMisses, h.MergedMisses)
	}
	// A different line at the same time is an independent miss.
	r3 := h.Data(2, uint64(2<<20))
	if r3 != 2+140 {
		t.Errorf("independent miss ready at %d, want 142", r3)
	}
}

func TestMissBufferBackPressure(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MissBufEntries = 2
	h := NewHierarchy(cfg)
	// Three distinct-line misses at cycle 0: the third must wait for a
	// buffer slot (earliest completion is cycle 140).
	h.Data(0, 1<<20)
	h.Data(0, 2<<20)
	r3 := h.Data(0, 3<<20)
	if r3 != 140+140 {
		t.Errorf("blocked miss ready at %d, want 280", r3)
	}
	if h.MissBufStall == 0 {
		t.Error("miss-buffer stall cycles not accounted")
	}
}

// TestMissBufferEvictionDeterministic: when the full buffer must free
// an entry and two lines that missed in the same cycle tie on their
// completion cycle, the lower line address is freed, so a later access
// to the lower line no longer merges and hits in L1 — on every run, not
// per map iteration order.
func TestMissBufferEvictionDeterministic(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MissBufEntries = 2
	for run := 0; run < 200; run++ {
		h := NewHierarchy(cfg)
		h.Data(0, 1<<20)
		h.Data(0, 2<<20) // ties with the first line at cycle 140
		h.Data(0, 3<<20) // full: frees the line at 1<<20
		if got := h.Data(1, 1<<20); got != 1+4 {
			t.Fatalf("run %d: access to the freed line ready at %d, want 5 (L1 hit, no merge)", run, got)
		}
		if got := h.Data(1, 2<<20); got != 140 {
			t.Fatalf("run %d: access to the kept line ready at %d, want 140 (merged)", run, got)
		}
	}
}

// TestReapWatermark: entries retire exactly when their fill completes,
// with the watermark kept across reaps that retire some entries.
func TestReapWatermark(t *testing.T) {
	h := NewDefault()
	h.Data(0, 1<<20)  // done 140
	h.Data(50, 2<<20) // done 190
	h.reap(139)
	if len(h.inflight) != 2 {
		t.Fatalf("reap(139) left %d entries, want 2", len(h.inflight))
	}
	h.reap(140)
	if len(h.inflight) != 1 || h.minDone != 190 {
		t.Fatalf("reap(140) left %d entries, watermark %d; want 1, 190", len(h.inflight), h.minDone)
	}
	h.reap(190)
	if len(h.inflight) != 0 || h.minDone != noneDone {
		t.Fatalf("reap(190) left %d entries, watermark %d; want 0, none", len(h.inflight), h.minDone)
	}
}

// TestLineIs16Bytes pins the way's size: validity lives in lastUse.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("cache line record is %d bytes, want 16", n)
	}
	c := small()
	c.Access(0) // tag 0 is a real tag, not an empty way
	if !c.Lookup(0) {
		t.Fatal("line with tag 0 not found after fill")
	}
	c.Invalidate(0)
	if c.Lookup(0) || c.Access(0) {
		t.Fatal("invalidated line with tag 0 still hits")
	}
}

func TestInstFetch(t *testing.T) {
	h := NewDefault()
	addr := uint64(1 << 30)
	if extra := h.Inst(addr); extra != 140-4 {
		t.Errorf("cold I-fetch extra stall %d, want 136", extra)
	}
	if extra := h.Inst(addr); extra != 0 {
		t.Errorf("warm I-fetch extra stall %d, want 0", extra)
	}
	if h.L1I.Misses != 1 || h.L1I.Accesses != 2 {
		t.Errorf("L1I stats %d/%d", h.L1I.Misses, h.L1I.Accesses)
	}
}

func TestTable1Geometry(t *testing.T) {
	cfg := DefaultHierConfig()
	checks := []struct {
		name      string
		got, want int
	}{
		{"L1D size", cfg.L1D.SizeBytes, 32 << 10},
		{"L1D ways", cfg.L1D.Ways, 8},
		{"L1I size", cfg.L1I.SizeBytes, 32 << 10},
		{"L1I ways", cfg.L1I.Ways, 4},
		{"L2 size", cfg.L2.SizeBytes, 256 << 10},
		{"L2 ways", cfg.L2.Ways, 16},
		{"L3 size", cfg.L3.SizeBytes, 4 << 20},
		{"L3 ways", cfg.L3.Ways, 32},
		{"line", cfg.L1D.LineBytes, 64},
		{"L1 latency", cfg.L1D.Latency, 4},
		{"L2 latency", cfg.L2.Latency, 12},
		{"L3 latency", cfg.L3.Latency, 25},
		{"memory latency", cfg.MemLatency, 140},
		{"miss buffer", cfg.MissBufEntries, 64},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table 1)", c.name, c.got, c.want)
		}
	}
}

func TestResetStats(t *testing.T) {
	h := NewDefault()
	h.Data(0, 1<<20)
	h.Inst(1 << 30)
	h.ResetStats()
	if h.L1D.Accesses != 0 || h.L1I.Accesses != 0 || h.DemandMisses != 0 {
		t.Error("ResetStats left counters behind")
	}
	// Contents must be preserved.
	if r := h.Data(1000, 1<<20); r != 1004 {
		t.Errorf("contents lost on ResetStats: ready %d, want 1004", r)
	}
}

func TestWorkingSetMissRates(t *testing.T) {
	// Streaming over a working set larger than L1D (32KB) but inside L2
	// (256KB) must show a high L1D miss rate but a low L2 miss rate after
	// warmup.
	h := NewDefault()
	const ws = 128 << 10
	touch := func() {
		for a := uint64(0); a < ws; a += 64 {
			h.Data(0, 1<<20+a)
		}
	}
	touch() // warm
	h.ResetStats()
	touch()
	if mr := h.L1D.MissRate(); mr < 0.9 {
		t.Errorf("L1D miss rate %f on 4x-oversized streaming set, want ~1", mr)
	}
	if mr := h.L2.MissRate(); mr > 0.1 {
		t.Errorf("L2 miss rate %f on L2-resident set, want ~0", mr)
	}
}
