package chunk

import "testing"

func fill(s *Store[int], from, to int) {
	for v := from; v < to; v++ {
		if i := s.Append(v); int(i) != v {
			panic("Append returned a wrong index")
		}
	}
}

func check(t *testing.T, s *Store[int], n int) {
	t.Helper()
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := *s.At(int32(i)); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
}

func TestStoreAppendAt(t *testing.T) {
	var s Store[int]
	fill(&s, 0, 3*Size+5)
	check(t, &s, 3*Size+5)
	// The first chunk stops at Size entries; later ones are allocated
	// whole.
	if len(s.chunks) != 4 || cap(s.chunks[0]) != Size || cap(s.chunks[1]) != Size {
		t.Fatalf("chunks = %d, caps %d and %d", len(s.chunks), cap(s.chunks[0]), cap(s.chunks[1]))
	}
}

// Entries past the first chunk never move: a pointer taken early still
// sees writes made through At after the store has grown.
func TestStoreEntriesStayPut(t *testing.T) {
	var s Store[int]
	fill(&s, 0, Size+1)
	p := s.At(Size)
	fill(&s, Size+1, 5*Size)
	*s.At(Size) = -1
	if *p != -1 {
		t.Fatal("an entry past the first chunk moved")
	}
}

func TestStoreSmallStaysSmall(t *testing.T) {
	var s Store[int]
	fill(&s, 0, 10)
	if n := cap(s.chunks[0]); n > 256 {
		t.Fatalf("10 entries hold a %d-entry chunk", n)
	}
	var c Store[int]
	c.CopyFrom(&s)
	if n := cap(c.chunks[0]); n != 10 {
		t.Fatalf("a copy of 10 entries holds a %d-entry chunk", n)
	}
	check(t, &c, 10)
	fill(&c, 10, 300)
	check(t, &c, 300)
}

func TestStoreCopyFromAndReset(t *testing.T) {
	var big, small, c Store[int]
	fill(&big, 0, 2*Size+7)
	fill(&small, 0, 30)
	c.CopyFrom(&big)
	check(t, &c, 2*Size+7)
	*c.At(5) = -5
	if *big.At(5) != 5 {
		t.Fatal("a copy shares entries with its source")
	}
	// A small copy over a large one leaves nothing behind, and the
	// store keeps growing correctly from there.
	c.CopyFrom(&small)
	check(t, &c, 30)
	fill(&c, 30, 3*Size)
	check(t, &c, 3*Size)
	// Reset keeps the chunks: refilling allocates nothing.
	c.Reset()
	check(t, &c, 0)
	if allocs := testing.AllocsPerRun(1, func() { c.Reset(); fill(&c, 0, 3*Size) }); allocs != 0 {
		t.Fatalf("refilling a reset store allocated %.0f times", allocs)
	}
	check(t, &c, 3*Size)
}
