// Package cache models the memory hierarchy of Table 1: split 32KB L1
// instruction/data caches, a 256KB unified L2, a 4MB L3, and 140-cycle
// main memory, with a miss buffer (MSHR) that merges requests to in-flight
// lines and bounds outstanding misses.
package cache

// Config describes one set-associative cache level.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // total load-to-use latency for a hit at this level
}

// line is one way: 16 bytes, so the 32-way 4MB L3 costs 1MB per machine.
// Validity is folded into lastUse: the clock ticks before every fill, so
// a filled line's lastUse is at least 1, and 0 marks an invalid way.
type line struct {
	tag     uint64
	lastUse uint64
}

// noMRU is the empty-slot sentinel for the per-set MRU tag cache. It can
// never collide with a real tag: tags are addr >> log2(LineBytes), so a
// tag of all-ones would require an address above 2^64.
const noMRU = ^uint64(0)

// Cache is one set-associative level with LRU replacement.
//
// Way storage is a single flat slice (set-major) rather than a slice of
// per-set slices, and each set caches the tag of its most-recently-used
// line. The simulator's access stream is dominated by repeated hits on
// the same line, and an MRU hit can skip the way scan and the LRU
// bookkeeping entirely: refreshing the line that already holds the
// unique per-set maximum lastUse cannot change any future victim choice
// (victims are picked by comparing lastUse within one set only), so the
// fast path leaves hit/miss outcomes and both counters byte-identical.
type Cache struct {
	lines  []line   // ways*setCnt entries, set-major
	mru    []uint64 // per-set MRU tag, noMRU when unknown
	clock  uint64
	shift  uint // log2(LineBytes)
	setCnt uint64
	ways   int

	Accesses uint64
	Misses   uint64
}

// Geom is one level's derived tag geometry: the line shift and set count
// every tag computation indexes through. Deriving it is where the
// power-of-two validation lives.
type Geom struct {
	Shift  uint   // log2(LineBytes)
	SetCnt uint64 // number of sets (power of two)
}

// Geom derives (and validates) the level's tag geometry.
func (cfg Config) Geom() Geom {
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	var shift uint
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		shift++
	}
	return Geom{Shift: shift, SetCnt: uint64(nsets)}
}

// New builds a cache from its configuration.
func New(cfg Config) *Cache {
	g := cfg.Geom()
	c := &Cache{
		setCnt: g.SetCnt,
		ways:   cfg.Ways,
		shift:  g.Shift,
		lines:  make([]line, int(g.SetCnt)*cfg.Ways),
		mru:    make([]uint64, g.SetCnt),
	}
	for i := range c.mru {
		c.mru[i] = noMRU
	}
	return c
}

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

// set returns the ways of the set holding tag.
func (c *Cache) set(tag uint64) []line {
	base := int(tag&(c.setCnt-1)) * c.ways
	return c.lines[base : base+c.ways]
}

// Lookup probes for the line containing addr without changing state.
func (c *Cache) Lookup(addr uint64) bool {
	tag := addr >> c.shift
	set := c.set(tag)
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access touches the line containing addr: on a hit it refreshes LRU and
// returns true; on a miss it allocates the line (evicting the LRU way) and
// returns false.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	tag := addr >> c.shift
	si := tag & (c.setCnt - 1)
	if c.mru[si] == tag {
		// The line is already its set's newest; refreshing it would not
		// change relative LRU order, so skip the scan and the clock tick.
		return true
	}
	c.clock++
	base := int(si) * c.ways
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			set[i].lastUse = c.clock
			c.mru[si] = tag
			return true
		}
		// The last invalid way (lastUse 0), else the least recently used:
		// valid lines of one set never tie on lastUse.
		if set[i].lastUse <= set[victim].lastUse {
			victim = i
		}
	}
	c.Misses++
	set[victim] = line{tag: tag, lastUse: c.clock}
	c.mru[si] = tag
	return false
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	tag := addr >> c.shift
	set := c.set(tag)
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			set[i].lastUse = 0
		}
	}
	if si := tag & (c.setCnt - 1); c.mru[si] == tag {
		c.mru[si] = noMRU
	}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears counters without touching contents, so warmup can be
// excluded from measurement.
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }
