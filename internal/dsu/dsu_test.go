package dsu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
)

func TestMakeSetSingleton(t *testing.T) {
	var f Forest
	a, b := f.MakeSet(), f.MakeSet()
	if f.Same(a, b) {
		t.Fatal("fresh sets must be disjoint")
	}
	if got := f.payload(a); got != -1 {
		t.Fatalf("fresh payload = %d, want -1", got)
	}
	f.setPayload(a, 7)
	f.setPayload(b, 8)
	if f.payload(a) != 7 || f.payload(b) != 8 {
		t.Fatalf("payloads = %d, %d, want 7, 8", f.payload(a), f.payload(b))
	}
}

func TestUnionKeepsDstPayload(t *testing.T) {
	var f Forest
	a, b := f.MakeSet(), f.MakeSet()
	f.setPayload(a, 1)
	f.setPayload(b, 2)
	f.Union(a, b)
	if !f.Same(a, b) {
		t.Fatal("union failed")
	}
	if got := f.payload(b); got != 1 {
		t.Fatalf("payload after union = %d, want 1 (dst payload survives)", got)
	}
}

func TestUnionChainPayload(t *testing.T) {
	// Repeatedly union singletons, and sets of every rank, into a growing
	// set; the payload must always be the original destination's,
	// whichever root union by rank picks.
	var f Forest
	dst := f.MakeSet()
	f.setPayload(dst, 42)
	for i := 0; i < 50; i++ {
		e := f.MakeSet()
		f.setPayload(e, int32(i))
		if i%3 == 0 {
			g := f.MakeSet()
			f.Union(e, g)
		}
		f.Union(dst, e)
		if got := f.payload(e); got != 42 {
			t.Fatalf("after union %d payload = %d, want 42", i, got)
		}
	}
}

func TestUnionSelf(t *testing.T) {
	var f Forest
	a := f.MakeSet()
	f.setPayload(a, 3)
	if r := f.Union(a, a); r != f.Find(a) {
		t.Fatal("self union should be a no-op returning the root")
	}
	if f.payload(a) != 3 {
		t.Fatal("self union must not drop payload")
	}
}

func TestSetPayload(t *testing.T) {
	var f Forest
	a, b := f.MakeSet(), f.MakeSet()
	f.setPayload(a, 1)
	f.Union(a, b)
	f.setPayload(b, 9)
	if got := f.payload(a); got != 9 {
		t.Fatalf("payload = %d, want 9", got)
	}
}

func TestFindCompresses(t *testing.T) {
	var f Forest
	elems := make([]Elem, 1000)
	for i := range elems {
		elems[i] = f.MakeSet()
	}
	for i := 1; i < len(elems); i++ {
		f.Union(elems[0], elems[i])
	}
	root := f.Find(elems[0])
	for _, e := range elems {
		if f.Find(e) != root {
			t.Fatal("all elements must share one root")
		}
	}
	// After compression every node points at the root directly.
	for _, e := range elems {
		if p := f.nodes.At(int32(e)).parent; p != root {
			t.Fatalf("node %d parent = %d, want root %d after compression", e, p, root)
		}
	}
}

// refDSU is a trivially correct reference: set membership by map coloring.
type refDSU struct {
	color   map[int]int
	payload map[int]int32
	next    int
}

func newRefDSU() *refDSU {
	return &refDSU{color: map[int]int{}, payload: map[int]int32{}}
}

func (r *refDSU) makeSet(p int32) int {
	id := r.next
	r.next++
	r.color[id] = id
	r.payload[id] = p
	return id
}

func (r *refDSU) union(dst, src int) {
	cd, cs := r.color[dst], r.color[src]
	if cd == cs {
		return
	}
	keep := r.payload[cd]
	for k, c := range r.color {
		if c == cs {
			r.color[k] = cd
		}
	}
	delete(r.payload, cs)
	r.payload[cd] = keep
}

func (r *refDSU) same(a, b int) bool { return r.color[a] == r.color[b] }

func (r *refDSU) pay(e int) int32 { return r.payload[r.color[e]] }

// TestQuickAgainstReference drives Forest and a reference implementation with
// the same random operation sequence and requires identical observable
// behaviour (Same and payload on random pairs).
func TestQuickAgainstReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var f Forest
		ref := newRefDSU()
		var elems []Elem
		var refs []int
		for op := 0; op < 300; op++ {
			switch {
			case len(elems) < 2 || rng.Intn(3) == 0:
				p := rng.Int31n(1000)
				e := f.MakeSet()
				f.setPayload(e, p)
				elems = append(elems, e)
				refs = append(refs, ref.makeSet(p))
			default:
				i, j := rng.Intn(len(elems)), rng.Intn(len(elems))
				f.Union(elems[i], elems[j])
				ref.union(refs[i], refs[j])
			}
			a, b := rng.Intn(len(elems)), rng.Intn(len(elems))
			if f.Same(elems[a], elems[b]) != ref.same(refs[a], refs[b]) {
				return false
			}
			if f.payload(elems[a]) != ref.pay(refs[a]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// naiveForest is a linked-list disjoint-set without path compression or
// union by rank: the reference the differential tests check Forest
// against, and the baseline of BenchmarkAblationPathCompression.
type naiveForest struct {
	parent []Elem
	pay    []int32
}

// newNaiveForest returns an empty naive forest.
func newNaiveForest() *naiveForest { return &naiveForest{} }

// MakeSet creates a fresh singleton set with payload -1, like Forest's.
func (f *naiveForest) MakeSet() Elem {
	e := Elem(len(f.parent))
	f.parent = append(f.parent, e)
	f.pay = append(f.pay, -1)
	return e
}

// Find returns the root of e's set without compressing.
func (f *naiveForest) Find(e Elem) Elem {
	for f.parent[e] != e {
		e = f.parent[e]
	}
	return e
}

// payload returns the payload of e's set.
func (f *naiveForest) payload(e Elem) int32 { return f.pay[f.Find(e)] }

// setPayload replaces the payload of e's set.
func (f *naiveForest) setPayload(e Elem, p int32) { f.pay[f.Find(e)] = p }

// Union merges src's set into dst's, keeping dst's payload.
func (f *naiveForest) Union(dst, src Elem) Elem {
	rd, rs := f.Find(dst), f.Find(src)
	if rd == rs {
		return rd
	}
	f.parent[rs] = rd
	return rd
}

func (f *naiveForest) clone() *naiveForest {
	return &naiveForest{parent: append([]Elem(nil), f.parent...), pay: append([]int32(nil), f.pay...)}
}

// drive applies ops random operations to f and n in lockstep and fails t
// at the first observable disagreement. Unions favour recent elements so
// that sets span chunk boundaries.
func drive(t *testing.T, rng *rand.Rand, f *Forest, n *naiveForest, ops int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		size := len(n.parent)
		switch {
		case size < 2 || rng.Intn(3) == 0:
			e, ne := f.MakeSet(), n.MakeSet()
			if e != ne {
				t.Fatalf("MakeSet = %d, naive %d", e, ne)
			}
			if rng.Intn(2) == 0 {
				p := rng.Int31n(100)
				f.setPayload(e, p)
				n.setPayload(e, p)
			}
		default:
			i := Elem(rng.Intn(size))
			j := Elem(size - 1 - rng.Intn(min(size, 64)))
			if rng.Intn(2) == 0 {
				i, j = j, i
			}
			f.Union(i, j)
			n.Union(i, j)
		}
		a, b := Elem(rng.Intn(len(n.parent))), Elem(rng.Intn(len(n.parent)))
		if f.Same(a, b) != (n.Find(a) == n.Find(b)) {
			t.Fatalf("op %d: naive and fast forests disagree on Same(%d, %d)", op, a, b)
		}
		if f.payload(a) != n.payload(a) {
			t.Fatalf("op %d: payload(%d) = %d, naive %d", op, a, f.payload(a), n.payload(a))
		}
	}
	if f.Len() != len(n.parent) {
		t.Fatalf("Len = %d, naive %d", f.Len(), len(n.parent))
	}
}

func TestNaiveForestMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f Forest
	drive(t, rng, &f, newNaiveForest(), 500)
}

// The forest keeps its nodes in chunks, reuses them after Reset and
// copies them in CopyFrom: check every path against the naive forest,
// with enough elements to fill several chunks.
func TestForestChunksMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := 4 * chunk.Size * 3 / 2 // about 4 chunks of elements
	var f Forest
	n := newNaiveForest()
	drive(t, rng, &f, n, ops)

	// A copy agrees with the naive forest and evolves independently of
	// its source.
	var c Forest
	c.CopyFrom(&f)
	cn := n.clone()
	drive(t, rng, &c, cn, ops)
	drive(t, rng, &f, n, ops/4)

	// Copying a small forest over a large one leaves no stale nodes.
	var small Forest
	sn := newNaiveForest()
	drive(t, rng, &small, sn, 100)
	c.CopyFrom(&small)
	drive(t, rng, &c, sn.clone(), ops)

	// A reset forest reuses its chunks and behaves like a fresh one.
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len after Reset = %d", f.Len())
	}
	if finds, unions := f.Stats(); finds != 0 || unions != 0 {
		t.Fatalf("Stats after Reset = %d, %d", finds, unions)
	}
	drive(t, rng, &f, newNaiveForest(), ops)
}

func TestStats(t *testing.T) {
	var f Forest
	a, b := f.MakeSet(), f.MakeSet()
	f.Union(a, b)
	f.Find(a)
	finds, unions := f.Stats()
	if unions != 1 {
		t.Fatalf("unions = %d, want 1", unions)
	}
	if finds < 3 { // two inside Union, one explicit
		t.Fatalf("finds = %d, want >= 3", finds)
	}
	var c Forest
	c.CopyFrom(&f)
	if cf, cu := c.Stats(); cf != finds || cu != unions {
		t.Fatalf("copied stats = %d, %d, want %d, %d", cf, cu, finds, unions)
	}
}

func BenchmarkAblationPathCompression(b *testing.B) {
	const n = 1 << 12
	b.Run("forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var f Forest
			elems := make([]Elem, n)
			for j := range elems {
				elems[j] = f.MakeSet()
			}
			for j := 1; j < n; j++ {
				f.Union(elems[j], elems[j-1])
			}
			for j := 0; j < n; j++ {
				f.Find(elems[j])
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := newNaiveForest()
			elems := make([]Elem, n)
			for j := range elems {
				elems[j] = f.MakeSet()
			}
			for j := 1; j < n; j++ {
				f.Union(elems[j], elems[j-1])
			}
			for j := 0; j < n; j++ {
				f.Find(elems[j])
			}
		}
	})
}
