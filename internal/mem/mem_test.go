package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocatorDisjoint(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc("a", 100)
	b := al.Alloc("b", 50)
	if a.Base+Addr(a.Len) > b.Base {
		t.Fatalf("regions overlap: %v then %v", a, b)
	}
	if a.Contains(b.Base) || b.Contains(a.Base) {
		t.Fatal("regions must be disjoint")
	}
	if al.Footprint() != 150 {
		t.Fatalf("footprint = %d, want 150", al.Footprint())
	}
}

func TestAllocatorZeroReserved(t *testing.T) {
	al := NewAllocator()
	r := al.Alloc("r", 10)
	if r.Contains(0) {
		t.Fatal("address 0 must never be allocated")
	}
	var zero Allocator
	r2 := zero.Alloc("z", 1)
	if r2.Contains(0) {
		t.Fatal("zero-value allocator must also reserve address 0")
	}
}

func TestRegionAt(t *testing.T) {
	al := NewAllocator()
	r := al.Alloc("xs", 4)
	for i := 0; i < 4; i++ {
		if got := r.At(i); got != r.Base+Addr(i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, r.Base+Addr(i))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	r.At(4)
}

func TestResolveDescribe(t *testing.T) {
	al := NewAllocator()
	al.Alloc("first", 8)
	r := al.Alloc("xs", 16)
	got := al.Describe(r.At(3))
	if got != "xs[3]" {
		t.Fatalf("Describe = %q, want xs[3]", got)
	}
	if _, ok := al.Resolve(Addr(10_000)); ok {
		t.Fatal("Resolve of unallocated address must fail")
	}
	if s := al.Describe(Addr(10_000)); s == "" {
		t.Fatal("Describe must fall back to hex")
	}
}

func TestShadowSentinel(t *testing.T) {
	s := NewShadow(-1)
	if got := s.Get(12345); got != -1 {
		t.Fatalf("unwritten Get = %d, want -1", got)
	}
	s.Set(12345, 7)
	if got := s.Get(12345); got != 7 {
		t.Fatalf("Get = %d, want 7", got)
	}
	// Neighbours on the same page still read sentinel.
	if got := s.Get(12346); got != -1 {
		t.Fatalf("neighbour Get = %d, want -1", got)
	}
}

func TestShadowPagesSparse(t *testing.T) {
	s := NewShadow(0)
	s.Set(1, 1)
	s.Set(1<<30, 2)
	if s.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", s.Pages())
	}
	if s.Get(1) != 1 || s.Get(1<<30) != 2 {
		t.Fatal("paged values lost")
	}
}

func TestShadowMatchesMapShadow(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewShadow(-1)
		m := newMapShadow(-1)
		for i := 0; i < 500; i++ {
			a := Addr(rng.Intn(1 << 16))
			if rng.Intn(2) == 0 {
				v := int32(rng.Intn(1000))
				p.Set(a, v)
				m.Set(a, v)
			}
			if p.Get(a) != m.Get(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAblationShadow(b *testing.B) {
	const span = 1 << 16
	b.Run("paged", func(b *testing.B) {
		s := NewShadow(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := Addr(i % span)
			s.Set(a, int32(i))
			if s.Get(a) != int32(i) {
				b.Fatal("bad value")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		s := newMapShadow(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := Addr(i % span)
			s.Set(a, int32(i))
			if s.Get(a) != int32(i) {
				b.Fatal("bad value")
			}
		}
	})
}
