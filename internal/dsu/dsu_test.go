package dsu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSetSingleton(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet("a")
	b := f.MakeSet("b")
	if f.Same(a, b) {
		t.Fatal("fresh sets must be disjoint")
	}
	if got := f.Payload(a); got != "a" {
		t.Fatalf("payload(a) = %v, want a", got)
	}
	if got := f.Payload(b); got != "b" {
		t.Fatalf("payload(b) = %v, want b", got)
	}
}

func TestUnionKeepsDstPayload(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet("A")
	b := f.MakeSet("B")
	f.Union(a, b)
	if !f.Same(a, b) {
		t.Fatal("union failed")
	}
	if got := f.Payload(b); got != "A" {
		t.Fatalf("payload after union = %v, want A (dst payload survives)", got)
	}
}

func TestUnionChainPayload(t *testing.T) {
	// Repeatedly union singletons into a growing set; payload must always be
	// the original destination's, regardless of which root rank picks.
	f := NewForest(64)
	dst := f.MakeSet("keep")
	for i := 0; i < 50; i++ {
		e := f.MakeSet(i)
		f.Union(dst, e)
		if got := f.Payload(e); got != "keep" {
			t.Fatalf("after union %d payload = %v, want keep", i, got)
		}
	}
}

func TestUnionSelf(t *testing.T) {
	f := NewForest(2)
	a := f.MakeSet("x")
	if r := f.Union(a, a); r != f.Find(a) {
		t.Fatal("self union should be a no-op returning the root")
	}
	if f.Payload(a) != "x" {
		t.Fatal("self union must not drop payload")
	}
}

func TestSetPayload(t *testing.T) {
	f := NewForest(2)
	a := f.MakeSet("old")
	b := f.MakeSet("junk")
	f.Union(a, b)
	f.SetPayload(b, "new")
	if got := f.Payload(a); got != "new" {
		t.Fatalf("payload = %v, want new", got)
	}
}

func TestFindCompresses(t *testing.T) {
	f := NewForest(1024)
	elems := make([]Elem, 1000)
	for i := range elems {
		elems[i] = f.MakeSet(nil)
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
		if p := f.nodes[e].parent; p != root {
			t.Fatalf("node %d parent = %d, want root %d after compression", e, p, root)
		}
	}
}

// refDSU is a trivially correct reference: set membership by map coloring.
type refDSU struct {
	color   map[int]int
	payload map[int]any
	next    int
}

func newRefDSU() *refDSU {
	return &refDSU{color: map[int]int{}, payload: map[int]any{}}
}

func (r *refDSU) makeSet(p any) int {
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

func (r *refDSU) pay(e int) any { return r.payload[r.color[e]] }

// TestQuickAgainstReference drives Forest and a reference implementation with
// the same random operation sequence and requires identical observable
// behaviour (Same and Payload on random pairs).
func TestQuickAgainstReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewForest(0)
		ref := newRefDSU()
		var elems []Elem
		var refs []int
		for op := 0; op < 300; op++ {
			switch {
			case len(elems) < 2 || rng.Intn(3) == 0:
				p := rng.Intn(1000)
				elems = append(elems, f.MakeSet(p))
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
			if f.Payload(elems[a]) != ref.pay(refs[a]) {
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
// union by rank: the reference TestNaiveForestMatchesForest checks Forest
// against, and the baseline of BenchmarkAblationPathCompression.
type naiveForest struct {
	parent  []Elem
	payload []any
}

// newNaiveForest returns an empty naive forest.
func newNaiveForest() *naiveForest { return &naiveForest{} }

// MakeSet creates a fresh singleton set with payload p.
func (f *naiveForest) MakeSet(p any) Elem {
	e := Elem(len(f.parent))
	f.parent = append(f.parent, e)
	f.payload = append(f.payload, p)
	return e
}

// Find returns the root of e's set without compressing.
func (f *naiveForest) Find(e Elem) Elem {
	for f.parent[e] != e {
		e = f.parent[e]
	}
	return e
}

// Payload returns the payload of e's set.
func (f *naiveForest) Payload(e Elem) any { return f.payload[f.Find(e)] }

// Union merges src's set into dst's, keeping dst's payload.
func (f *naiveForest) Union(dst, src Elem) Elem {
	rd, rs := f.Find(dst), f.Find(src)
	if rd == rs {
		return rd
	}
	f.parent[rs] = rd
	f.payload[rs] = nil
	return rd
}

func TestNaiveForestMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewForest(0)
	n := newNaiveForest()
	var fe []Elem
	var ne []Elem
	for op := 0; op < 500; op++ {
		if len(fe) < 2 || rng.Intn(3) == 0 {
			p := rng.Intn(100)
			fe = append(fe, f.MakeSet(p))
			ne = append(ne, n.MakeSet(p))
		} else {
			i, j := rng.Intn(len(fe)), rng.Intn(len(fe))
			f.Union(fe[i], fe[j])
			n.Union(ne[i], ne[j])
		}
		a, b := rng.Intn(len(fe)), rng.Intn(len(fe))
		if f.Same(fe[a], fe[b]) != (n.Find(ne[a]) == n.Find(ne[b])) {
			t.Fatal("naive and fast forests disagree on Same")
		}
		if f.Payload(fe[a]) != n.Payload(ne[a]) {
			t.Fatal("naive and fast forests disagree on Payload")
		}
	}
}

func TestStats(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet(nil)
	b := f.MakeSet(nil)
	f.Union(a, b)
	f.Find(a)
	finds, unions := f.Stats()
	if unions != 1 {
		t.Fatalf("unions = %d, want 1", unions)
	}
	if finds < 3 { // two inside Union, one explicit
		t.Fatalf("finds = %d, want >= 3", finds)
	}
}

func BenchmarkAblationPathCompression(b *testing.B) {
	const n = 1 << 12
	b.Run("forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := NewForest(n)
			elems := make([]Elem, n)
			for j := range elems {
				elems[j] = f.MakeSet(nil)
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
				elems[j] = f.MakeSet(nil)
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
