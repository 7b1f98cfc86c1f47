// Package mem provides the sparse data memory of the vanguard machine.
//
// Memory is byte-addressed but accessed in aligned 64-bit words; the
// backing store is paged so that programs with multi-megabyte footprints
// (needed to provoke realistic L2/L3 miss rates) stay cheap to simulate.
// Addresses below FaultBoundary fault, modelling the unmapped null page
// that makes control-speculated loads dangerous in real programs.
//
// A small direct-mapped page-translation cache (a software TLB) sits in
// front of the pages map: the simulator's hot loop issues one load or
// store per memory instruction, and nearly all of them land on a handful
// of recently-touched pages, so the common case is two masks and one
// array read instead of a map lookup. LoadFast/StoreFast are the
// allocation-free forms the pipeline uses per-access; Load/Store keep the
// error-returning contract for the golden model and loaders.
//
// Clone is copy-on-write: it copies the page table, and each side copies
// a page the first time it stores to it. A page this memory may write in
// place is "owned"; the ownership bit lives in the page-table entry and
// is mirrored in the TLB slot, so only the store slow path reads the map
// for it.
package mem

import (
	"fmt"
	"maps"
)

const (
	// PageBytes is the size of one backing page.
	PageBytes = 1 << 16
	wordsPP   = PageBytes / 8

	// FaultBoundary is the lowest valid address: accesses below it fault,
	// like dereferences of null-ish pointers.
	FaultBoundary = 4096

	// tlbEntries sizes the direct-mapped translation cache. 64 entries
	// cover 4MB of working set at zero associativity cost; conflict
	// misses just fall back to the map.
	tlbEntries = 64
)

// Fault describes a memory access fault.
type Fault struct {
	Addr  uint64
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("memory fault: %s at %#x", kind, f.Addr)
}

// pte is one page-table entry. own marks a page no clone shares, which
// this memory may write in place; any other page is copied on its first
// store.
type pte struct {
	page *[wordsPP]int64
	own  bool
}

// tlbEnt is one translation-cache slot; page == nil marks it empty. own
// mirrors the page's pte, so a store hits the slot only when it may
// write the page in place.
type tlbEnt struct {
	pn   uint64
	page *[wordsPP]int64
	own  bool
}

// Memory is a sparse, paged 64-bit word store.
type Memory struct {
	pages map[uint64]pte
	owned int // pages with pte.own set
	tlb   [tlbEntries]tlbEnt
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]pte)}
}

// Valid reports whether the address is mapped-legal and aligned. It is
// pure address arithmetic, so callers probing for wrong-path faults can
// use it without touching the page table (or allocating a Fault).
func Valid(addr uint64) bool {
	return addr >= FaultBoundary && addr%8 == 0
}

// pageFor returns the backing page for page number pn (nil if the page
// was never written), consulting the TLB before the map and filling the
// TLB on a map hit.
func (m *Memory) pageFor(pn uint64) *[wordsPP]int64 {
	e := &m.tlb[pn&(tlbEntries-1)]
	if e.page != nil && e.pn == pn {
		return e.page
	}
	p := m.pages[pn]
	if p.page != nil {
		e.pn, e.page, e.own = pn, p.page, p.own
	}
	return p.page
}

// Load reads the 64-bit word at addr. It returns a *Fault error for
// misaligned or out-of-bounds addresses.
func (m *Memory) Load(addr uint64) (int64, error) {
	if !Valid(addr) {
		return 0, &Fault{Addr: addr}
	}
	page := m.pageFor(addr / PageBytes)
	if page == nil {
		return 0, nil // unwritten memory reads as zero
	}
	return page[(addr%PageBytes)/8], nil
}

// LoadFast is the allocation-free hot-path load: ok is false exactly when
// Load would fault, and the value matches Load in every case.
func (m *Memory) LoadFast(addr uint64) (v int64, ok bool) {
	if !Valid(addr) {
		return 0, false
	}
	page := m.pageFor(addr / PageBytes)
	if page == nil {
		return 0, true
	}
	return page[(addr%PageBytes)/8], true
}

// Store writes the 64-bit word at addr.
func (m *Memory) Store(addr uint64, v int64) error {
	if !m.StoreFast(addr, v) {
		return &Fault{Addr: addr, Write: true}
	}
	return nil
}

// StoreFast is the allocation-free hot-path store: ok is false exactly
// when Store would fault (nothing is written in that case).
func (m *Memory) StoreFast(addr uint64, v int64) bool {
	if !Valid(addr) {
		return false
	}
	pn := addr / PageBytes
	e := &m.tlb[pn&(tlbEntries-1)]
	if !e.own || e.pn != pn {
		m.ownPage(pn, e)
	}
	e.page[(addr%PageBytes)/8] = v
	return true
}

// ownPage is the store slow path: it makes page pn one this memory owns,
// allocating a page never written and copying a shared one, and loads
// it into TLB slot e.
func (m *Memory) ownPage(pn uint64, e *tlbEnt) {
	p := m.pages[pn]
	if !p.own {
		page := new([wordsPP]int64)
		if p.page != nil {
			*page = *p.page
		}
		p = pte{page: page, own: true}
		m.pages[pn] = p
		m.owned++
	}
	e.pn, e.page, e.own = pn, p.page, true
}

// MustStore stores and panics on fault; used by program loaders that write
// only known-good addresses.
func (m *Memory) MustStore(addr uint64, v int64) {
	if !m.StoreFast(addr, v) {
		panic(&Fault{Addr: addr, Write: true})
	}
}

// Clone returns a copy with value semantics: a store to either memory
// never shows in the other. The copy is lazy: Clone copies the page
// table, marks every page shared on both sides, and each side copies a
// page on its first store to it. The clone starts with a cold TLB.
//
// Clone writes to its receiver only when the receiver owns pages (it
// gives them up). So cloning a memory that owns none — itself a clone
// nothing has stored to since — only reads it, and many goroutines may
// clone it at once. A memory shared that way is sealed by making it a
// clone before it is published.
func (m *Memory) Clone() *Memory {
	if m.owned > 0 {
		for pn, p := range m.pages {
			if p.own {
				m.pages[pn] = pte{page: p.page}
			}
		}
		m.owned = 0
		for i := range m.tlb {
			m.tlb[i].own = false
		}
	}
	return &Memory{pages: maps.Clone(m.pages)}
}

// Equal reports whether two memories hold identical contents. Pages of all
// zeros are treated as absent, so a written-then-zeroed page equals an
// untouched one. Equal only reads both memories.
func (m *Memory) Equal(o *Memory) bool {
	return m.subsetOf(o) && o.subsetOf(m)
}

func (m *Memory) subsetOf(o *Memory) bool {
	for pn, p := range m.pages {
		op, ok := o.pages[pn]
		switch {
		case ok && op.page == p.page:
			// Shared by a clone and written by neither side.
		case !ok:
			for _, v := range p.page {
				if v != 0 {
					return false
				}
			}
		case *p.page != *op.page:
			return false
		}
	}
	return true
}
