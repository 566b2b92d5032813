package depa

import (
	"strings"
	"testing"
)

// mk builds a timestamp from raw (forkDepth, branch) entries.
func mk(depth int32, entries ...[2]int32) Timestamp {
	path := make([]uint32, 0, len(entries))
	for _, e := range entries {
		path = append(path, pathEntry(e[0], uint32(e[1])))
	}
	return pack(path, depth)
}

func TestPackRoundTrip(t *testing.T) {
	for n := 0; n <= 9; n++ {
		path := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			path = append(path, pathEntry(int32(3*i+1), uint32(i%2)))
		}
		ts := pack(path, int32(n+7))
		if ts.Depth() != int32(n+7) {
			t.Fatalf("n=%d: depth = %d, want %d", n, ts.Depth(), n+7)
		}
		if ts.PathLen() != n {
			t.Fatalf("n=%d: pathLen = %d, want %d", n, ts.PathLen(), n)
		}
		for i := 0; i < n; i++ {
			if got := ts.entryAt(int32(i)); got != path[i] {
				t.Fatalf("n=%d entry %d: got %#x want %#x", n, i, got, path[i])
			}
		}
		// Mutating the caller's slice must not alias the timestamp.
		for i := range path {
			path[i] = 0xffffffff
		}
		for i := 0; i < n; i++ {
			if ts.entryAt(int32(i)) == 0xffffffff {
				t.Fatalf("n=%d: pack aliased the caller's path slice", n)
			}
		}
	}
}

func TestHandRelations(t *testing.T) {
	root := mk(0)
	child := mk(1, [2]int32{0, 0})    // spawned child of the root fork
	cont := mk(1, [2]int32{0, 1})     // the continuation of that fork
	postSync := mk(3)                 // strand after the join, path popped
	deepFork := mk(4, [2]int32{3, 0}) // child of a later fork on the serial chain

	type rel struct {
		a, b     Timestamp
		precedes bool // a ≺ b
		follows  bool // b ≺ a
		parallel bool
	}
	cases := []rel{
		{root, child, true, false, false},
		{root, cont, true, false, false},
		{root, postSync, true, false, false},
		{child, cont, false, false, true},
		{child, postSync, true, false, false},
		{cont, postSync, true, false, false},
		// The earlier fork's subtree joined at the sync before the later
		// fork existed: child (fork depth 0) precedes deepFork (fork
		// depth 3), even though their branch bits alone would read as a
		// parallel child/continuation pair.
		{child, deepFork, true, false, false},
		{cont, deepFork, true, false, false},
		{postSync, deepFork, true, false, false},
	}
	for i, c := range cases {
		if got := Precedes(c.a, c.b); got != c.precedes {
			t.Errorf("case %d: Precedes(%v, %v) = %v, want %v", i, c.a, c.b, got, c.precedes)
		}
		if got := Precedes(c.b, c.a); got != c.follows {
			t.Errorf("case %d: Precedes(%v, %v) = %v, want %v", i, c.b, c.a, got, c.follows)
		}
		if got := Parallel(c.a, c.b); got != c.parallel {
			t.Errorf("case %d: Parallel(%v, %v) = %v, want %v", i, c.a, c.b, got, c.parallel)
		}
		if got := Parallel(c.b, c.a); got != c.parallel {
			t.Errorf("case %d: Parallel(%v, %v) = %v, want %v", i, c.b, c.a, got, c.parallel)
		}
		// Exactly one of ≺, ≻, ∥ holds for distinct strands.
		n := 0
		for _, v := range []bool{c.precedes, c.follows, c.parallel} {
			if v {
				n++
			}
		}
		if n != 1 {
			t.Errorf("case %d: relations not mutually exclusive", i)
		}
	}
}

func TestSelfRelations(t *testing.T) {
	for _, ts := range []Timestamp{mk(0), mk(5, [2]int32{1, 0}, [2]int32{4, 1}), mk(9, [2]int32{2, 1}, [2]int32{5, 0}, [2]int32{7, 1})} {
		if !equal(ts, ts) {
			t.Fatalf("equal(%v, %v) = false", ts, ts)
		}
		if Parallel(ts, ts) {
			t.Fatalf("Parallel(%v, self) = true", ts)
		}
		if Precedes(ts, ts) {
			t.Fatalf("Precedes(%v, self) = true", ts)
		}
	}
}

// TestDivergencePastCommonLength pins the padding-lane subtlety: when two
// paths agree on their common prefix but one is longer, the XOR scan hits
// a nonzero word whose differing lane lies past the shorter path's length.
// That is a prefix case, not a divergence.
func TestDivergencePastCommonLength(t *testing.T) {
	short := mk(2, [2]int32{0, 0})                // one entry: high lane of word 0
	long := mk(4, [2]int32{0, 0}, [2]int32{2, 0}) // two entries sharing word 0
	if _, _, ok := divergence(short, long); ok {
		t.Fatalf("divergence(%v, %v) reported a split on a prefix pair", short, long)
	}
	if !Precedes(short, long) {
		t.Fatalf("Precedes(%v, %v) = false, want true (serial chain, smaller depth)", short, long)
	}
	if Parallel(short, long) {
		t.Fatalf("Parallel(%v, %v) = true on a prefix pair", short, long)
	}
}

func TestString(t *testing.T) {
	ts := mk(7, [2]int32{0, 0}, [2]int32{3, 1})
	s := ts.String()
	for _, want := range []string{"d7", "f0·0", "f3·1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}
