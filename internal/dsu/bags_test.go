package dsu

import "testing"

func TestBagsUnionKeepsDstKindAndView(t *testing.T) {
	var b Bags
	s, p := b.New(0, 7), b.New(1, 9)
	x, y := b.Add(s), b.Add(p)
	if b.Of(x) != b.At(s) || b.Of(y) != b.At(p) {
		t.Fatal("an added element must be found in its bag")
	}
	b.Union(s, p)
	if !b.At(p).Empty() || b.At(s).Empty() {
		t.Fatal("a union must empty src and fill dst")
	}
	if bg := b.Of(y); bg != b.At(s) || bg.Kind != 0 || bg.View != 7 {
		t.Fatalf("after the union y's bag is %+v, want bag %d with kind 0 and view 7", *bg, s)
	}
	// A union into an empty bag moves the set under dst's identity.
	q := b.New(1, 3)
	b.Union(q, s)
	if b.Of(x) != b.At(q) || b.Of(y) != b.At(q) || b.Of(x).View != 3 {
		t.Fatal("a union into an empty bag must rename the set")
	}
	b.Union(q, s) // an empty src moves nothing and is not counted
	if got := b.Ops(); got != 4 {
		t.Fatalf("Ops = %d, want 4 (two adds, two unions that moved elements)", got)
	}
}

func TestBagsFreeReuse(t *testing.T) {
	var b Bags
	b.New(0, 0)
	p := b.New(1, 5)
	b.Free(p)
	if q := b.New(1, 6); q != p || b.At(q).View != 6 || !b.At(q).Empty() {
		t.Fatalf("New after Free = %d (%+v), want the freed bag %d, empty, view 6", q, *b.At(q), p)
	}
	if r := b.New(0, 0); r != 2 {
		t.Fatalf("New with no free bag = %d, want 2", r)
	}
}

func TestBagsCopyFromIsIndependent(t *testing.T) {
	var b, c Bags
	s, p := b.New(0, 1), b.New(1, 2)
	x := b.Add(s)
	b.Free(p)
	c.CopyFrom(&b)
	b.At(s).View = 9
	b.Union(b.New(1, 4), s)
	b.Add(s)
	if c.At(s).View != 1 || c.Of(x) != c.At(s) {
		t.Fatal("changes to the source must not reach the copy")
	}
	if elems, _, _ := c.Stats(); elems != 1 || c.Ops() != 1 {
		t.Fatalf("copy has %d elements and %d ops, want 1 and 1", elems, c.Ops())
	}
	if q := c.New(1, 0); q != p {
		t.Fatalf("the copy's New = %d, want the freed bag %d", q, p)
	}
	c.Reset()
	if elems, finds, unions := c.Stats(); elems != 0 || finds != 0 || unions != 0 || c.Ops() != 0 {
		t.Fatal("Reset must empty the forest and zero the counters")
	}
	if q := c.New(0, 0); q != 0 {
		t.Fatalf("New after Reset = %d, want 0", q)
	}
}
