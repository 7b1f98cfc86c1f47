package mem

import (
	"maps"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	addrs := []uint64{FaultBoundary, FaultBoundary + 8, 1 << 20, 3 << 24}
	for i, a := range addrs {
		if err := m.Store(a, int64(i)*1000-7); err != nil {
			t.Fatalf("Store(%#x): %v", a, err)
		}
	}
	for i, a := range addrs {
		v, err := m.Load(a)
		if err != nil {
			t.Fatalf("Load(%#x): %v", a, err)
		}
		if want := int64(i)*1000 - 7; v != want {
			t.Errorf("Load(%#x) = %d, want %d", a, v, want)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	v, err := m.Load(1 << 30)
	if err != nil || v != 0 {
		t.Fatalf("Load of untouched memory = %d, %v; want 0, nil", v, err)
	}
}

func TestFaults(t *testing.T) {
	m := New()
	cases := []struct {
		addr  uint64
		write bool
	}{
		{0, false}, {0, true},
		{8, false},                  // below FaultBoundary
		{FaultBoundary - 8, true},   // below FaultBoundary
		{FaultBoundary + 1, false},  // misaligned
		{FaultBoundary + 12, false}, // misaligned
	}
	for _, c := range cases {
		var err error
		if c.write {
			err = m.Store(c.addr, 1)
		} else {
			_, err = m.Load(c.addr)
		}
		f, ok := err.(*Fault)
		if !ok {
			t.Errorf("addr %#x write=%v: got %v, want *Fault", c.addr, c.write, err)
			continue
		}
		if f.Addr != c.addr || f.Write != c.write {
			t.Errorf("fault fields wrong: %+v", f)
		}
		if f.Error() == "" {
			t.Error("empty fault message")
		}
	}
}

func TestMustStorePanicsOnFault(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustStore(0) should panic")
		}
	}()
	New().MustStore(0, 1)
}

func TestStoreWords(t *testing.T) {
	m := New()
	vs := []int64{1, -2, 3, -4, 5}
	base := uint64(PageBytes - 16) // straddles a page boundary
	if base < FaultBoundary {
		t.Fatal("test base must be valid")
	}
	if err := m.StoreWords(base, vs); err != nil {
		t.Fatal(err)
	}
	for i, want := range vs {
		got, err := m.Load(base + uint64(i)*8)
		if err != nil || got != want {
			t.Errorf("word %d = %d, %v; want %d", i, got, err, want)
		}
	}
	if m.Footprint() != 2 {
		t.Errorf("Footprint() = %d, want 2 (write straddles pages)", m.Footprint())
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.MustStore(FaultBoundary, 11)
	c := m.Clone()
	c.MustStore(FaultBoundary, 99)
	v, _ := m.Load(FaultBoundary)
	if v != 11 {
		t.Errorf("clone aliased original: got %d", v)
	}
	if !m.Equal(m.Clone()) {
		t.Error("memory must equal its own clone")
	}
}

func TestEqualTreatsZeroPagesAsAbsent(t *testing.T) {
	a, b := New(), New()
	a.MustStore(FaultBoundary, 5)
	a.MustStore(FaultBoundary, 0) // page exists but is all zero
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("zeroed page must compare equal to absent page")
	}
	a.MustStore(FaultBoundary+8, 3)
	if a.Equal(b) {
		t.Error("differing memories compared equal")
	}
}

// Property: for any sequence of valid stores, the last store to each
// address wins and all other addresses stay zero.
func TestLastStoreWins(t *testing.T) {
	f := func(offsets []uint16, vals []int64) bool {
		m := New()
		want := map[uint64]int64{}
		n := len(offsets)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			addr := FaultBoundary + uint64(offsets[i])*8
			if m.Store(addr, vals[i]) != nil {
				return false
			}
			want[addr] = vals[i]
		}
		for a, w := range want {
			got, err := m.Load(a)
			if err != nil || got != w {
				return false
			}
		}
		// A nearby untouched address must read zero.
		probe := FaultBoundary + uint64(1<<20)
		if _, used := want[probe]; !used {
			if got, err := m.Load(probe); err != nil || got != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// cloneAddrs is the address universe of FuzzCloneIsolation: a few words
// on each of several pages, two pairs of which collide in the TLB (page
// numbers tlbEntries apart), plus one address that faults.
var cloneAddrs = func() []uint64 {
	var as []uint64
	for _, pn := range []uint64{0, 1, 2, tlbEntries + 1, 2*tlbEntries + 2} {
		for w := uint64(0); w < 3; w++ {
			as = append(as, pn*PageBytes+FaultBoundary+w*8)
		}
	}
	return append(as, 8)
}()

// FuzzCloneIsolation runs an op stream — store, load, clone,
// clone-of-clone, equal — over a family of memories, every memory a
// clone of an earlier one, and checks each op against a map-based model
// with plain value semantics: a store to one memory never shows in
// another.
func FuzzCloneIsolation(f *testing.F) {
	// Store to a page, clone, store to the original again, load the clone.
	f.Add([]byte{0, 0, 0, 10, 2, 0, 0, 0, 0, 20, 1, 1, 0})
	f.Add([]byte{0, 0, 1, 7, 2, 0, 0, 1, 0, 9, 1, 0, 1, 1, 1, 1, 4, 0, 1})
	f.Add([]byte{0, 0, 3, 1, 0, 0, 9, 2, 3, 0, 0, 0, 0, 3, 5, 0, 1, 3, 5, 4, 1, 2, 4, 0, 3})
	f.Add([]byte{0, 0, 15, 3, 2, 0, 2, 1, 0, 0, 4, 0, 2, 1, 0, 3, 0, 0, 6, 9, 4, 0, 1, 4, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fam := []*Memory{New()}
		ref := []map[uint64]int64{{}}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 && len(fam) <= 16 {
			op, i := next()%5, int(next())%len(fam)
			switch op {
			case 0: // store
				a, v := cloneAddrs[int(next())%len(cloneAddrs)], int64(next())-128
				err := fam[i].Store(a, v)
				if (err == nil) != Valid(a) {
					t.Fatalf("Store(%#x) on memory %d: %v", a, i, err)
				}
				if err == nil {
					ref[i][a] = v
				}
			case 1: // load
				a := cloneAddrs[int(next())%len(cloneAddrs)]
				v, err := fam[i].Load(a)
				if (err == nil) != Valid(a) || v != ref[i][a] {
					t.Fatalf("Load(%#x) on memory %d = %d, %v; want %d", a, i, v, err, ref[i][a])
				}
			case 2: // clone
				fam = append(fam, fam[i].Clone())
				ref = append(ref, maps.Clone(ref[i]))
			case 3: // clone of a clone
				c := fam[i].Clone()
				fam = append(fam, c, c.Clone())
				ref = append(ref, maps.Clone(ref[i]), maps.Clone(ref[i]))
			case 4: // equal
				k := int(next()) % len(fam)
				if got, want := fam[i].Equal(fam[k]), refEqual(ref[i], ref[k]); got != want {
					t.Fatalf("memory %d Equal memory %d = %v, want %v", i, k, got, want)
				}
			}
		}
		for i, m := range fam {
			for _, a := range cloneAddrs[:len(cloneAddrs)-1] {
				if v, _ := m.Load(a); v != ref[i][a] {
					t.Fatalf("memory %d at %#x = %d, want %d", i, a, v, ref[i][a])
				}
			}
		}
	})
}

// refEqual is Equal on the map model: absent words read as zero.
func refEqual(a, b map[uint64]int64) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// filled returns a memory with one distinct word on each of n pages.
func filled(n int) *Memory {
	m := New()
	for pn := uint64(1); pn <= uint64(n); pn++ {
		m.MustStore(pn*PageBytes, int64(pn))
	}
	return m
}

// TestCloneSealedSnapshotConcurrent: a clone nothing has stored to owns
// no page, so cloning it only reads it. Eight goroutines clone one such
// snapshot and each overwrite every page of their own clone; the
// snapshot must be unchanged (run under -race, this is also the check
// that cloning it writes nothing).
func TestCloneSealedSnapshotConcurrent(t *testing.T) {
	const pages = 32
	snap := filled(pages).Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := snap.Clone()
			for pn := uint64(1); pn <= pages; pn++ {
				c.MustStore(pn*PageBytes, int64(g+100))
				if v, _ := c.Load(pn * PageBytes); v != int64(g+100) {
					t.Errorf("goroutine %d: page %d reads %d after its store", g, pn, v)
				}
			}
		}()
	}
	wg.Wait()
	if !snap.Equal(filled(pages)) {
		t.Fatal("stores to clones changed the shared snapshot")
	}
}

// TestCloneAllocs: cloning a 32-page memory copies the page table, not
// the pages, and a clone copies a page once, on its first store.
func TestCloneAllocs(t *testing.T) {
	m := filled(32)
	c := m.Clone()
	for pn, p := range m.pages {
		if c.pages[pn].page != p.page {
			t.Fatalf("page %d copied by Clone", pn)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 100
	for i := 0; i < n; i++ {
		m.Clone()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= PageBytes {
		t.Fatalf("Clone of a 32-page memory allocates %d bytes; a page is %d", per, PageBytes)
	}
	c.MustStore(PageBytes, 5) // first store: copies the page
	if allocs := testing.AllocsPerRun(100, func() { c.MustStore(PageBytes+8, 6) }); allocs != 0 {
		t.Fatalf("stores to a page the clone already copied allocate: %v allocs/op", allocs)
	}
	if v, _ := m.Load(PageBytes); v != 1 {
		t.Fatalf("store to the clone reached the original: %d", v)
	}
}
