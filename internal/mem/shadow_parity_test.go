package mem

import (
	"math/rand"
	"testing"
)

// The paged Shadow and the map-backed mapShadow implement one contract: a
// Get returns the last Set value, or the sentinel for a never-written
// address. The property test drives both with an identical random
// operation mix over the full 64-bit address range — including the page
// holding ^uint64(0), the boundary that would collide with a lastPage
// sentinel chosen from the page-key space — and demands bit-for-bit
// agreement throughout.
func TestShadowMapShadowParity(t *testing.T) {
	const sentinel = -7
	rng := rand.New(rand.NewSource(20150613))

	// Addresses are drawn from clusters that stress the cache and the
	// paging: dense low addresses, page-boundary straddles, and the very
	// top of the address space where a sentinel-valued page key would
	// live.
	clusters := []uint64{
		0,
		1,
		pageSize - 2,
		pageSize,
		(1 << 20) - 3,
		^uint64(0) - pageSize - 2,
		^uint64(0) - 2,
	}
	pick := func() Addr {
		base := clusters[rng.Intn(len(clusters))]
		return Addr(base + uint64(rng.Intn(5)))
	}

	paged := NewShadow(sentinel)
	mapped := newMapShadow(sentinel)
	for i := 0; i < 20000; i++ {
		a := pick()
		switch rng.Intn(40) {
		case 0:
			// Reset-then-reuse: both sides forget everything; the paged side
			// must refill recycled buffers with the sentinel, not leak stale
			// values back through the free list.
			paged.Reset()
			mapped.Reset()
		case 1:
			// A snapshot marks pages shared; subsequent writes go through
			// the copy-on-write path. Parity must survive the transition.
			paged.Snapshot()
		default:
			if rng.Intn(2) == 0 {
				v := int32(rng.Intn(100))
				paged.Set(a, v)
				mapped.Set(a, v)
			}
		}
		if got, want := paged.Get(a), mapped.Get(a); got != want {
			t.Fatalf("op %d: Shadow.Get(%#x) = %d, MapShadow says %d", i, uint64(a), got, want)
		}
		// Interleave a read of a different cluster so the one-entry page
		// cache is repeatedly invalidated and repopulated.
		b := pick()
		if got, want := paged.Get(b), mapped.Get(b); got != want {
			t.Fatalf("op %d: Shadow.Get(%#x) = %d, MapShadow says %d", i, uint64(b), got, want)
		}
	}
}

// The sentinel boundary itself: the highest addresses must read as unset,
// accept writes, and not alias any other page — even though their page
// number is the largest representable key, adjacent to what a ^uint64(0)
// cache sentinel would occupy if page keys ever widened.
func TestShadowSentinelBoundary(t *testing.T) {
	s := NewShadow(-1)
	top := Addr(^uint64(0))
	if got := s.Get(top); got != -1 {
		t.Fatalf("unwritten top address reads %d, want sentinel -1", got)
	}
	s.Set(top, 42)
	if got := s.Get(top); got != 42 {
		t.Fatalf("top address reads %d after Set, want 42", got)
	}
	// The first page must be unaffected: a collapsed or aliased page key
	// would surface here.
	if got := s.Get(0); got != -1 {
		t.Fatalf("address 0 reads %d after writing the top page, want sentinel", got)
	}
	s.Set(0, 7)
	if got, gotTop := s.Get(0), s.Get(top); got != 7 || gotTop != 42 {
		t.Fatalf("pages alias: low=%d (want 7), top=%d (want 42)", got, gotTop)
	}
	if s.Pages() != 2 {
		t.Fatalf("expected exactly 2 materialized pages, got %d", s.Pages())
	}
}

// mapShadow is the map-backed shadow space: the reference the parity tests
// check Shadow against, and the baseline of BenchmarkAblationShadow.
type mapShadow struct {
	m        map[Addr]int32
	sentinel int32
}

// newMapShadow returns a map-backed shadow with the given sentinel.
func newMapShadow(sentinel int32) *mapShadow {
	return &mapShadow{m: make(map[Addr]int32), sentinel: sentinel}
}

// Get returns the value at a or the sentinel.
func (s *mapShadow) Get(a Addr) int32 {
	if v, ok := s.m[a]; ok {
		return v
	}
	return s.sentinel
}

// Set stores v at a.
func (s *mapShadow) Set(a Addr, v int32) { s.m[a] = v }

// Reset forgets every stored value, the mapShadow parity of Shadow.Reset.
func (s *mapShadow) Reset() { clear(s.m) }
