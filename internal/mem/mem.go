// Package mem provides the simulated shared-memory substrate the detectors
// instrument. The paper's Rader prototype piggybacks on ThreadSanitizer
// compiler instrumentation to observe each read and write of the program
// under test; here, programs instead allocate logical address ranges from an
// Allocator and report their accesses through the cilk execution context,
// which forwards (address, kind) pairs to the active detector.
//
// The package also provides the paged shadow spaces ("reader" and "writer"
// in the paper) that map each accessed address to the ID of the function
// instantiation that last read or wrote it.
package mem

import "fmt"

// Addr is a logical address in the simulated shared memory.
type Addr uint64

// Region is a named contiguous address range, typically shadowing one Go
// slice of the program under test.
type Region struct {
	Name string
	Base Addr
	Len  uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Len)
}

// At returns the address of element i of the region.
func (r Region) At(i int) Addr {
	if i < 0 || uint64(i) >= r.Len {
		panic(fmt.Sprintf("mem: %s[%d] out of range [0,%d)", r.Name, i, r.Len))
	}
	return r.Base + Addr(i)
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("%s[%#x,%#x)", r.Name, uint64(r.Base), uint64(r.Base)+r.Len)
}

// Allocator hands out non-overlapping address ranges. The zero value is
// ready for use and allocates from address 1 (address 0 is reserved so the
// zero Addr never aliases real data).
type Allocator struct {
	next    Addr
	regions []Region
}

// NewAllocator returns an allocator starting at address 1.
func NewAllocator() *Allocator { return &Allocator{next: 1} }

// Alloc reserves n addresses under the given name.
func (al *Allocator) Alloc(name string, n int) Region {
	if al.next == 0 {
		al.next = 1
	}
	if n < 0 {
		panic("mem: negative allocation")
	}
	r := Region{Name: name, Base: al.next, Len: uint64(n)}
	al.next += Addr(n)
	al.regions = append(al.regions, r)
	return r
}

// Resolve returns the region containing a, for human-readable race reports.
func (al *Allocator) Resolve(a Addr) (Region, bool) {
	for _, r := range al.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// Describe renders an address as region[offset] when known.
func (al *Allocator) Describe(a Addr) string {
	if r, ok := al.Resolve(a); ok {
		return fmt.Sprintf("%s[%d]", r.Name, uint64(a-r.Base))
	}
	return fmt.Sprintf("%#x", uint64(a))
}

// Footprint reports the total number of addresses allocated, the v in the
// paper's O(T·alpha(v,v)) bounds.
func (al *Allocator) Footprint() uint64 { return uint64(al.next) - 1 }

// PageBits is the shadow page geometry: a Shadow materializes addresses
// in pages of 1<<PageBits. Consumers that partition the address space
// (depa's detection shards) split it along these pages.
const PageBits = 12

const (
	pageSize = 1 << PageBits
	pageMask = pageSize - 1

	// maxFreePages caps the Reset free list. A 10^4-spec sweep resets
	// pooled detectors tens of thousands of times; without a cap each
	// Reset of a page-heavy unit would park every private page forever,
	// hoarding arena-sized buffers that the next (usually small) unit
	// never drains. 128 pages (2 MiB of int32s) keeps the hot reuse path
	// while bounding the pool.
	maxFreePages = 128
)

// shadowPage is one materialized page. A page starts private to the Shadow
// that created it; taking a Snapshot marks every live page shared, after
// which the struct is immutable — a later write copies the buffer into a
// fresh private page and swaps the map entry, leaving every snapshot that
// references the shared page untouched (copy-on-write).
type shadowPage struct {
	buf    []int32
	shared bool
}

// Shadow is a two-level paged shadow space mapping addresses to int32
// values (function-instantiation IDs in the detectors). Unmapped addresses
// read as the sentinel passed at construction. Pages materialize on first
// write, so sparse address spaces stay cheap while hot loops avoid map
// overhead — the ablation bench BenchmarkAblationShadow quantifies this
// against a plain map.
type Shadow struct {
	pages    map[uint64]*shadowPage
	sentinel int32
	// one-entry cache: hot loops touch consecutive addresses. Validity is
	// carried by last != nil, never by a magic lastPage value: with
	// 12-bit pages the key ^uint64(0) happens to be unreachable (a 64-bit
	// address shifts down to at most 2^52-1), but indexing correctness
	// must not hinge on that arithmetic accident surviving a PageBits
	// change.
	lastPage uint64
	last     *shadowPage
	// free recycles private page buffers across Reset calls so pooled
	// sweep units reuse pages without reallocation.
	free [][]int32
	// copied counts copy-on-write page clones since construction.
	copied uint64
}

// NewShadow returns a shadow space whose unwritten entries read as sentinel.
func NewShadow(sentinel int32) *Shadow {
	return &Shadow{pages: make(map[uint64]*shadowPage), sentinel: sentinel}
}

// buffer hands out a page buffer of unspecified contents, recycling one
// from the free list when available.
func (s *Shadow) buffer() []int32 {
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		return buf
	}
	return make([]int32, pageSize)
}

// newPage hands out a sentinel-filled buffer.
func (s *Shadow) newPage() []int32 {
	if len(s.free) == 0 && s.sentinel == 0 {
		return make([]int32, pageSize) // already all sentinel
	}
	buf := s.buffer()
	for i := range buf {
		buf[i] = s.sentinel
	}
	return buf
}

func (s *Shadow) page(a Addr, create bool) *shadowPage {
	pn := uint64(a) >> PageBits
	if pn == s.lastPage && s.last != nil {
		return s.last
	}
	pg, ok := s.pages[pn]
	if !ok {
		if !create {
			return nil
		}
		pg = &shadowPage{buf: s.newPage()}
		s.pages[pn] = pg
	}
	s.lastPage, s.last = pn, pg
	return pg
}

// Get returns the value stored at a, or the sentinel if never written.
func (s *Shadow) Get(a Addr) int32 {
	pg := s.page(a, false)
	if pg == nil {
		return s.sentinel
	}
	return pg.buf[uint64(a)&pageMask]
}

// Set stores v at address a. Writing to a page shared with a snapshot
// first clones it into a fresh private page (copy-on-write), so snapshots
// stay immutable.
func (s *Shadow) Set(a Addr, v int32) {
	pg := s.page(a, true)
	if pg.shared {
		// The copy overwrites every cell, so the clone skips the fill.
		clone := &shadowPage{buf: s.buffer()}
		copy(clone.buf, pg.buf)
		pn := uint64(a) >> PageBits
		s.pages[pn] = clone
		s.lastPage, s.last = pn, clone
		s.copied++
		pg = clone
	}
	pg.buf[uint64(a)&pageMask] = v
}

// Pages reports how many shadow pages have materialized.
func (s *Shadow) Pages() int { return len(s.pages) }

// PagesCopied reports how many copy-on-write page clones writes have
// forced since construction (Reset does not clear it; it is a lifetime
// counter feeding the sweep's pages-copied metric).
func (s *Shadow) PagesCopied() uint64 { return s.copied }

// Reset forgets every stored value, as if the shadow were freshly
// constructed with the same sentinel. Private page buffers are recycled
// into a free list (capped at maxFreePages) for the next materialization;
// shared pages may still back live snapshots, and overflow beyond the cap
// is left to the garbage collector.
func (s *Shadow) Reset() {
	for pn, pg := range s.pages {
		if !pg.shared && len(s.free) < maxFreePages {
			s.free = append(s.free, pg.buf)
		}
		delete(s.pages, pn)
	}
	s.last = nil
}

// PagesPooled reports how many recycled page buffers the free list holds,
// the residency behind the raderd_sweep_pages_pooled gauge.
func (s *Shadow) PagesPooled() int { return len(s.free) }

// ShadowSnap is an immutable point-in-time copy of a Shadow, produced by
// Snapshot and consumed (any number of times) by Restore. Cost is
// proportional to the number of materialized pages — page buffers are
// shared copy-on-write, not copied.
type ShadowSnap struct {
	pages    map[uint64]*shadowPage
	sentinel int32
}

// Snapshot captures the current contents. Every live page is marked
// shared, so subsequent writes through this Shadow (or any Shadow restored
// from the snapshot) copy the page before mutating it.
func (s *Shadow) Snapshot() *ShadowSnap {
	return s.SnapshotInto(nil)
}

// SnapshotInto is Snapshot reusing a retired snapshot's containers. The
// work-stealing sweep refcounts snapshots: once every seeded unit has
// restored from one, its struct and page map (never the page buffers,
// which stay shared) can back the next capture without reallocation.
// Passing nil allocates fresh, exactly like Snapshot.
func (s *Shadow) SnapshotInto(snap *ShadowSnap) *ShadowSnap {
	if snap == nil || snap.pages == nil {
		snap = &ShadowSnap{pages: make(map[uint64]*shadowPage, len(s.pages))}
	} else {
		clear(snap.pages)
	}
	snap.sentinel = s.sentinel
	for pn, pg := range s.pages {
		// Only flip private pages: an already-shared page may be visible to
		// sibling shadows restored from an earlier snapshot, and re-writing
		// the flag would race with their reads. Shared is monotonic, so the
		// prior write is already visible via the snapshot handoff.
		if !pg.shared {
			pg.shared = true
		}
		snap.pages[pn] = pg
	}
	return snap
}

// Restore replaces the shadow's contents with the snapshot's. The sentinel
// is adopted from the snapshot; previously private pages are recycled.
func (s *Shadow) Restore(snap *ShadowSnap) {
	s.Reset()
	s.sentinel = snap.sentinel
	for pn, pg := range snap.pages {
		s.pages[pn] = pg
	}
}
