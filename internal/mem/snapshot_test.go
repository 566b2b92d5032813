package mem

import "testing"

// A snapshot must be immutable: writes through the originating shadow
// after Snapshot go to fresh private pages, and any number of shadows
// restored from the snapshot see exactly the captured contents.
func TestShadowSnapshotImmutable(t *testing.T) {
	s := NewShadow(-1)
	s.Set(10, 1)
	s.Set(pageSize+10, 2)
	snap := s.Snapshot()

	s.Set(10, 99)
	s.Set(pageSize+10, 98)
	s.Set(2*pageSize, 97) // page born after the snapshot

	for i, other := range []*Shadow{NewShadow(-1), NewShadow(-1)} {
		other.Restore(snap)
		if got := other.Get(10); got != 1 {
			t.Fatalf("restore %d: addr 10 reads %d, want the captured 1", i, got)
		}
		if got := other.Get(pageSize + 10); got != 2 {
			t.Fatalf("restore %d: addr page+10 reads %d, want 2", i, got)
		}
		if got := other.Get(2 * pageSize); got != -1 {
			t.Fatalf("restore %d: post-snapshot page leaked: %d", i, got)
		}
	}
	// The originating shadow keeps its post-snapshot values.
	if s.Get(10) != 99 || s.Get(pageSize+10) != 98 {
		t.Fatalf("origin lost post-snapshot writes: %d %d", s.Get(10), s.Get(pageSize+10))
	}
}

// Writes diverging from a shared snapshot clone each touched page exactly
// once — the O(pages touched since fork) cost the sweep banks on.
func TestShadowCopyOnWriteCounts(t *testing.T) {
	s := NewShadow(0)
	s.Set(1, 1)
	s.Set(pageSize+1, 2)
	if n := s.PagesCopied(); n != 0 {
		t.Fatalf("copies before any snapshot: %d", n)
	}
	snap := s.Snapshot()

	s.Set(1, 5) // first write to a shared page clones it
	s.Set(2, 6) // second write to the now-private clone does not
	if n := s.PagesCopied(); n != 1 {
		t.Fatalf("after two writes to one shared page: %d copies, want 1", n)
	}
	s.Set(pageSize+1, 7)
	if n := s.PagesCopied(); n != 2 {
		t.Fatalf("after touching the second shared page: %d copies, want 2", n)
	}

	// A shadow restored from the snapshot pays its own copies.
	r := NewShadow(0)
	r.Restore(snap)
	r.Set(1, 9)
	if n := r.PagesCopied(); n != 1 {
		t.Fatalf("restored shadow: %d copies, want 1", n)
	}
	// And the fork stayed independent.
	if s.Get(1) != 5 || r.Get(1) != 9 {
		t.Fatalf("forks alias: origin=%d restored=%d", s.Get(1), r.Get(1))
	}
}

// Reset must be equivalent to a fresh construction: every address reads
// the sentinel again, even when the buffer came back off the free list
// with stale contents, and shared pages survive for their snapshots.
func TestShadowResetThenReuse(t *testing.T) {
	s := NewShadow(-3)
	for a := Addr(0); a < 8; a++ {
		s.Set(a, int32(a)+1)
	}
	snap := s.Snapshot()
	s.Set(0, 42) // forces a private COW clone eligible for recycling
	s.Reset()
	if got := s.Get(0); got != -3 {
		t.Fatalf("after Reset addr 0 reads %d, want sentinel", got)
	}
	// Reuse recycles the freed buffer; it must come back sentinel-filled.
	s.Set(1, 7)
	if got := s.Get(0); got != -3 {
		t.Fatalf("recycled page leaked stale value %d at addr 0", got)
	}
	if got := s.Get(1); got != 7 {
		t.Fatalf("recycled page lost its write: %d", got)
	}
	// The snapshot's shared pages were untouched by Reset.
	r := NewShadow(0)
	r.Restore(snap)
	if got := r.Get(0); got != 1 {
		t.Fatalf("snapshot damaged by Reset: addr 0 reads %d, want 1", got)
	}
	// PagesCopied is a lifetime counter and survives Reset.
	if s.PagesCopied() == 0 {
		t.Fatal("lifetime PagesCopied counter was cleared by Reset")
	}
}

// mapShadow.Reset is the parity operation of Shadow.Reset.
func TestMapShadowReset(t *testing.T) {
	m := newMapShadow(-1)
	m.Set(3, 9)
	m.Reset()
	if got := m.Get(3); got != -1 {
		t.Fatalf("after Reset MapShadow reads %d, want sentinel", got)
	}
}

// A copy-on-write clone may be backed by a recycled buffer that still
// holds another page's values: the clone skips the sentinel fill, so the
// copy alone must make every cell equal the snapshot's.
func TestShadowCloneOverDirtyRecycledBuffer(t *testing.T) {
	s := NewShadow(-1)
	for i := 0; i < pageSize; i++ {
		s.Set(Addr(i), int32(1000+i)) // page 0: no cell holds the sentinel
	}
	src := NewShadow(-1)
	src.Set(pageSize+5, 42)
	snap := src.Snapshot()

	s.Restore(snap) // parks page 0's dirty buffer on the free list
	if s.PagesPooled() != 1 {
		t.Fatalf("%d pooled buffers after Restore, want the one dirty page", s.PagesPooled())
	}
	s.Set(pageSize+6, 43) // clones the shared page into the dirty buffer
	if s.PagesPooled() != 0 || s.PagesCopied() != 1 {
		t.Fatalf("pooled %d, copied %d: the clone did not take the recycled buffer",
			s.PagesPooled(), s.PagesCopied())
	}
	for i := 0; i < pageSize; i++ {
		a := Addr(pageSize + i)
		want := int32(-1)
		switch i {
		case 5:
			want = 42
		case 6:
			want = 43
		}
		if got := s.Get(a); got != want {
			t.Fatalf("cell %d of the clone reads %d, want %d", i, got, want)
		}
	}
	if got := src.Get(pageSize + 6); got != -1 {
		t.Fatalf("write through the clone leaked into the snapshot's page: %d", got)
	}
}
