package core

import "testing"

func TestLineagePath(t *testing.T) {
	var l Lineage
	l.Add(0, 0, "main", NoParent)
	l.Add(1, 1, "f", 0)
	l.Add(2, 2, "g", 1)
	if got := l.Path(2); got != "main>f>g" {
		t.Fatalf("path = %q", got)
	}
	if got := l.Path(0); got != "main" {
		t.Fatalf("root path = %q", got)
	}
	if l.Frame(2) != 2 || l.Label(1) != "f" {
		t.Fatal("accessors")
	}
	if l.Frame(-1) != -1 || l.Label(99) != "?" {
		t.Fatal("out-of-range accessors must be safe")
	}
	// A reduce invocation renders its frame's label plus "/reduce"; a copy
	// renders its original's path.
	l.AddReduce(3, 1, "f", 1)
	l.AddCopy(4, 2)
	if got := l.Path(3); got != "main>f>f/reduce" || l.Label(3) != "f/reduce" {
		t.Fatalf("reduce path = %q, label %q", got, l.Label(3))
	}
	if got := l.Path(4); got != "main>f>g" || l.Frame(4) != 2 {
		t.Fatalf("copy path = %q, frame %d", got, l.Frame(4))
	}
	// A copy is independent: labels added to either side stay there.
	var c Lineage
	c.CopyFrom(&l)
	c.Add(5, 5, "h", 4)
	l.Add(5, 6, "k", 4)
	if c.Path(5) != "main>f>g>h" || l.Path(5) != "main>f>g>k" {
		t.Fatalf("copies share state: %q vs %q", c.Path(5), l.Path(5))
	}
}

func TestLineageTruncatesDeepPaths(t *testing.T) {
	var l Lineage
	l.Add(0, 0, "root", NoParent)
	for i := int32(1); i <= 40; i++ {
		l.Add(i, 0, "n", i-1)
	}
	p := l.Path(40)
	if len(p) == 0 || p[0:1] == ">" {
		t.Fatalf("path = %q", p)
	}
	if want := "…"; !contains(p, want) {
		t.Fatalf("deep path must be truncated: %q", p)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
