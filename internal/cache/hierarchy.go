package cache

// HierConfig describes the full Table 1 memory hierarchy.
type HierConfig struct {
	L1I, L1D, L2, L3 Config
	MemLatency       int
	MissBufEntries   int // outstanding-miss limit (Table 1: 64)
}

// DefaultHierConfig returns the Table 1 configuration: 8-way 32KB L1-D,
// 4-way 32KB L1-I, 64B lines, 4-cycle L1; 16-way 256KB L2 at 12 cycles;
// 32-way 4MB L3 at 25 cycles; 140-cycle main memory; 64-entry miss buffer.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:            Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 4},
		L1D:            Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 4},
		L2:             Config{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, Latency: 12},
		L3:             Config{SizeBytes: 4 << 20, Ways: 32, LineBytes: 64, Latency: 25},
		MemLatency:     140,
		MissBufEntries: 64,
	}
}

// Hierarchy simulates the cache/memory system. Latency modelling is
// ready-time based: an access at cycle `now` returns the cycle at which
// its data is available, merging requests to lines already in flight
// (so two loads to one missing line overlap rather than serialize) and
// stalling when the miss buffer is full.
type Hierarchy struct {
	cfg HierConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache

	// missBuf holds the in-flight fills, one per line, in no order. It
	// never outgrows MissBufEntries (one entry when that is 0), so its
	// storage is allocated once; entries leave by swap-remove.
	missBuf []missEntry
	// minDone is at most the earliest fill-complete cycle in missBuf
	// (noneDone when it is empty), so reap returns at once while no
	// entry can be due.
	minDone int64

	DemandMisses uint64 // L1D misses that allocated a miss-buffer entry
	MergedMisses uint64 // accesses that piggybacked on an in-flight line
	MissBufStall uint64 // cycles lost to a full miss buffer

	// OnMiss, when non-nil, observes every L1 miss that goes to the outer
	// hierarchy (merged accesses do not re-fire). The pipeline wires this
	// to its telemetry sink to emit cache-miss events.
	OnMiss func(Miss)
}

// missEntry is one in-flight fill: a line and its fill-complete cycle.
type missEntry struct {
	line uint64
	done int64
}

// Miss describes one L1 miss for the OnMiss observer.
type Miss struct {
	Addr    uint64
	Inst    bool   // instruction-side (L1I) rather than data-side (L1D)
	Level   string // "l2", "l3" or "mem": where the line was found
	Latency int64  // total load-to-use latency charged
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1I: New(cfg.L1I), L1D: New(cfg.L1D),
		L2: New(cfg.L2), L3: New(cfg.L3),
		missBuf: make([]missEntry, 0, max(cfg.MissBufEntries, 1)),
		minDone: noneDone,
	}
}

// NewDefault builds the Table 1 hierarchy.
func NewDefault() *Hierarchy { return NewHierarchy(DefaultHierConfig()) }

// noneDone is the minDone of an empty miss buffer.
const noneDone = int64(1<<62 - 1)

// reap retires the miss-buffer entries whose fill completed by now.
func (h *Hierarchy) reap(now int64) {
	if now < h.minDone {
		return
	}
	h.minDone = noneDone
	for i := 0; i < len(h.missBuf); {
		if done := h.missBuf[i].done; done <= now {
			h.removeMiss(i)
		} else {
			h.minDone = min(h.minDone, done)
			i++
		}
	}
}

// removeMiss drops missBuf[i], moving the last entry into its slot.
func (h *Hierarchy) removeMiss(i int) {
	last := len(h.missBuf) - 1
	h.missBuf[i] = h.missBuf[last]
	h.missBuf = h.missBuf[:last]
}

// missLatency walks L2/L3/memory for a line that missed in an L1 and
// returns the total load-to-use latency and the level that supplied it.
func (h *Hierarchy) missLatency(addr uint64) (int, string) {
	if h.L2.Access(addr) {
		return h.cfg.L2.Latency, "l2"
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.Latency, "l3"
	}
	return h.cfg.MemLatency, "mem"
}

// Data performs a data access at cycle now and returns the cycle the value
// is available (for loads) or accepted (for stores).
func (h *Hierarchy) Data(now int64, addr uint64) int64 {
	h.reap(now)
	la := h.L1D.LineAddr(addr)
	for _, e := range h.missBuf {
		if e.line != la {
			continue
		}
		// The line is already being fetched: merge with it.
		h.MergedMisses++
		h.L1D.Access(addr) // counts the access; line will be present by e.done
		if t := now + int64(h.cfg.L1D.Latency); t > e.done {
			return t
		}
		return e.done
	}
	if h.L1D.Access(addr) {
		return now + int64(h.cfg.L1D.Latency)
	}
	// Miss: allocate a miss-buffer entry, stalling if full. The entry
	// freed is the one that completes first, the lowest line address on a
	// tie, so the choice never depends on the buffer's order. Removing
	// it leaves minDone a lower bound.
	start := now
	if len(h.missBuf) >= h.cfg.MissBufEntries {
		earliest, victim := noneDone, -1
		var victimLine uint64
		for i, e := range h.missBuf {
			if e.done < earliest || e.done == earliest && e.line < victimLine {
				earliest, victim, victimLine = e.done, i, e.line
			}
		}
		if victim >= 0 {
			h.removeMiss(victim)
		}
		if earliest > start {
			h.MissBufStall += uint64(earliest - start)
			start = earliest
		}
	}
	h.DemandMisses++
	lat, level := h.missLatency(addr)
	done := start + int64(lat)
	h.missBuf = append(h.missBuf, missEntry{la, done})
	h.minDone = min(h.minDone, done)
	if h.OnMiss != nil {
		h.OnMiss(Miss{Addr: addr, Level: level, Latency: done - now})
	}
	return done
}

// Inst performs an instruction fetch access for the line containing addr
// and returns the extra stall cycles beyond a first-level hit (0 for an
// L1-I hit: the pipeline's front-end depth already covers hit latency).
func (h *Hierarchy) Inst(addr uint64) int64 {
	if h.L1I.Access(addr) {
		return 0
	}
	lat, level := h.missLatency(addr)
	stall := int64(lat) - int64(h.cfg.L1I.Latency)
	if h.OnMiss != nil {
		h.OnMiss(Miss{Addr: addr, Inst: true, Level: level, Latency: stall})
	}
	return stall
}

// ResetStats clears all counters (contents preserved) for warmup exclusion.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.DemandMisses, h.MergedMisses, h.MissBufStall = 0, 0, 0
}
