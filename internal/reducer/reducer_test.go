package reducer

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cilk"
	"repro/internal/progs"
)

// specs exercised by every determinism test.
var specs = []cilk.StealSpec{
	nil,
	cilk.StealAll{},
	cilk.StealAll{Reduce: cilk.ReduceEager},
	cilk.StealAll{Reduce: cilk.ReduceMiddleFirst},
	progs.RandomSpec{Seed: 11, P: 0.4},
}

func TestOpAddDeterministic(t *testing.T) {
	for _, spec := range specs {
		var got int
		cilk.Run(func(c *cilk.Ctx) {
			h := New[int](c, "sum", OpAdd[int](), 0)
			c.ParForGrain("add", 100, 3, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, v int) int { return v + i })
			})
			got = h.Value(c)
		}, cilk.Config{Spec: spec})
		if got != 4950 {
			t.Fatalf("spec %#v: sum = %d, want 4950", spec, got)
		}
	}
}

func TestOpMulDeterministic(t *testing.T) {
	for _, spec := range specs {
		var got uint64
		cilk.Run(func(c *cilk.Ctx) {
			h := New[uint64](c, "prod", OpMul[uint64](), 1)
			c.ParForGrain("mul", 20, 2, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, v uint64) uint64 { return v * uint64(i+1) })
			})
			got = h.Value(c)
		}, cilk.Config{Spec: spec})
		want := uint64(1)
		for i := 1; i <= 20; i++ {
			want *= uint64(i)
		}
		if got != want {
			t.Fatalf("prod = %d, want %d", got, want)
		}
	}
}

func TestOpMaxIndexDeterministicTies(t *testing.T) {
	// Two equal maxima: the serially-earlier index must win under every
	// schedule (associativity without commutativity).
	vals := []int{3, 9, 1, 9, 5}
	for _, spec := range specs {
		var got MaxView[int]
		cilk.Run(func(c *cilk.Ctx) {
			h := New[MaxView[int]](c, "max", OpMax[int](), MaxView[int]{})
			c.ParForGrain("scan", len(vals), 1, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, v MaxView[int]) MaxView[int] {
					return v.Max(vals[i], i)
				})
			})
			got = h.Value(c)
		}, cilk.Config{Spec: spec})
		if got.Value != 9 || got.Index != 1 {
			t.Fatalf("spec %#v: max = %+v, want value 9 at index 1", spec, got)
		}
	}
}

func TestOpMinIndex(t *testing.T) {
	vals := []int{3, 0, 7, 0}
	for _, spec := range specs {
		var got MinView[int]
		cilk.Run(func(c *cilk.Ctx) {
			h := New[MinView[int]](c, "min", OpMin[int](), MinView[int]{})
			c.ParForGrain("scan", len(vals), 1, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, v MinView[int]) MinView[int] {
					return v.Min(vals[i], i)
				})
			})
			got = h.Value(c)
		}, cilk.Config{Spec: spec})
		if got.Value != 0 || got.Index != 1 {
			t.Fatalf("min = %+v, want value 0 at index 1", got)
		}
	}
}

func TestBitwiseOps(t *testing.T) {
	for _, spec := range specs {
		var and, or, xor uint32
		cilk.Run(func(c *cilk.Ctx) {
			ha := New[uint32](c, "and", OpAnd[uint32](), ^uint32(0))
			ho := New[uint32](c, "or", OpOr[uint32](), 0)
			hx := New[uint32](c, "xor", OpXor[uint32](), 0)
			c.ParForGrain("bits", 16, 1, func(cc *cilk.Ctx, i int) {
				m := uint32(0xF0F0F0F0 | uint32(i))
				ha.Update(cc, func(_ *cilk.Ctx, v uint32) uint32 { return v & m })
				ho.Update(cc, func(_ *cilk.Ctx, v uint32) uint32 { return v | uint32(1<<i) })
				hx.Update(cc, func(_ *cilk.Ctx, v uint32) uint32 { return v ^ uint32(1<<i) })
			})
			and, or, xor = ha.Value(c), ho.Value(c), hx.Value(c)
		}, cilk.Config{Spec: spec})
		if and != 0xF0F0F0F0 {
			t.Fatalf("and = %#x", and)
		}
		if or != 0xFFFF {
			t.Fatalf("or = %#x", or)
		}
		if xor != 0xFFFF {
			t.Fatalf("xor = %#x", xor)
		}
	}
}

func TestListPreservesSerialOrder(t *testing.T) {
	for _, spec := range specs {
		var got []int
		cilk.Run(func(c *cilk.Ctx) {
			h := New[[]int](c, "list", List[int](), nil)
			c.ParForGrain("app", 50, 2, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, v []int) []int { return append(v, i) })
			})
			got = h.Value(c)
		}, cilk.Config{Spec: spec})
		for i, v := range got {
			if v != i {
				t.Fatalf("spec %#v: list out of order at %d: %v", spec, i, got[:i+1])
			}
		}
		if len(got) != 50 {
			t.Fatalf("len = %d", len(got))
		}
	}
}

func TestHolderProvidesScratch(t *testing.T) {
	cilk.Run(func(c *cilk.Ctx) {
		h := New[[]byte](c, "scratch", Holder[[]byte](func() []byte { return make([]byte, 8) }), make([]byte, 8))
		c.ParForGrain("use", 20, 1, func(cc *cilk.Ctx, i int) {
			h.Update(cc, func(_ *cilk.Ctx, buf []byte) []byte {
				buf[0] = byte(i) // private workspace, no race
				return buf
			})
		})
	}, cilk.Config{Spec: cilk.StealAll{}})
}

func TestOstreamSerialOrder(t *testing.T) {
	for _, spec := range specs {
		var got string
		cilk.Run(func(c *cilk.Ctx) {
			h := New[*Ostream](c, "out", OstreamMonoid(), &Ostream{})
			c.ParForGrain("emit", 20, 2, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, o *Ostream) *Ostream {
					o.Printf("%d,", i)
					return o
				})
			})
			got = h.Value(c).String()
		}, cilk.Config{Spec: spec})
		want := ""
		for i := 0; i < 20; i++ {
			want += fmt.Sprintf("%d,", i)
		}
		if got != want {
			t.Fatalf("spec %#v: ostream = %q, want %q", spec, got, want)
		}
	}
}

func TestHypervectorOrder(t *testing.T) {
	var got []string
	cilk.Run(func(c *cilk.Ctx) {
		h := New[*Hypervector[string]](c, "hv", HypervectorMonoid[string](), &Hypervector[string]{})
		c.ParForGrain("emit", 30, 1, func(cc *cilk.Ctx, i int) {
			h.Update(cc, func(_ *cilk.Ctx, v *Hypervector[string]) *Hypervector[string] {
				v.Append(fmt.Sprintf("e%02d", i))
				return v
			})
		})
		got = h.Value(c).Elems
	}, cilk.Config{Spec: cilk.StealAll{Reduce: cilk.ReduceEager}})
	if !sort.StringsAreSorted(got) || len(got) != 30 {
		t.Fatalf("hypervector out of order: %v", got)
	}
}

// --- Bag ---

func TestBagInsertLen(t *testing.T) {
	b := NewBag[int]()
	for i := 0; i < 1000; i++ {
		if b.Len() != i {
			t.Fatalf("len = %d, want %d", b.Len(), i)
		}
		b.Insert(i)
	}
	seen := make(map[int]bool)
	b.ForEach(func(x int) { seen[x] = true })
	if len(seen) != 1000 {
		t.Fatalf("ForEach visited %d distinct, want 1000", len(seen))
	}
}

func TestBagUnionPreservesElements(t *testing.T) {
	check := func(na, nb uint8) bool {
		a, b := NewBag[int](), NewBag[int]()
		want := make(map[int]int)
		for i := 0; i < int(na); i++ {
			a.Insert(i)
			want[i]++
		}
		for i := 0; i < int(nb); i++ {
			b.Insert(1000 + i)
			want[1000+i]++
		}
		a.Union(b)
		if a.Len() != int(na)+int(nb) {
			return false
		}
		if !b.Empty() {
			return false
		}
		got := make(map[int]int)
		a.ForEach(func(x int) { got[x]++ })
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBagPennantStructure(t *testing.T) {
	// A bag of n elements has pennants exactly at the set bits of n.
	for _, n := range []int{1, 2, 3, 7, 8, 100, 255, 256} {
		b := NewBag[int]()
		for i := 0; i < n; i++ {
			b.Insert(i)
		}
		count := 0
		total := 0
		for _, pn := range b.Pennants() {
			count++
			size := 0
			var walk func(p *Pennant[int])
			walk = func(p *Pennant[int]) {
				if p == nil {
					return
				}
				size++
				l, r := p.Children()
				walk(l)
				walk(r)
			}
			walk(pn)
			if size&(size-1) != 0 {
				t.Fatalf("n=%d: pennant size %d not a power of two", n, size)
			}
			total += size
		}
		if total != n {
			t.Fatalf("n=%d: pennants hold %d elements", n, total)
		}
		bits := 0
		for m := n; m > 0; m >>= 1 {
			bits += m & 1
		}
		if count != bits {
			t.Fatalf("n=%d: %d pennants, want %d (popcount)", n, count, bits)
		}
	}
}

func TestBagReducerDeterministicContents(t *testing.T) {
	// The bag is unordered, but its element multiset must be identical
	// under every schedule.
	collect := func(spec cilk.StealSpec) []int {
		var out []int
		cilk.Run(func(c *cilk.Ctx) {
			h := New[*Bag[int]](c, "bag", BagMonoid[int](), NewBag[int]())
			c.ParForGrain("ins", 200, 4, func(cc *cilk.Ctx, i int) {
				h.Update(cc, func(_ *cilk.Ctx, b *Bag[int]) *Bag[int] {
					b.Insert(i)
					return b
				})
			})
			h.Value(c).ForEach(func(x int) { out = append(out, x) })
		}, cilk.Config{Spec: spec})
		sort.Ints(out)
		return out
	}
	want := collect(nil)
	if len(want) != 200 {
		t.Fatalf("bag has %d elements", len(want))
	}
	for _, spec := range specs[1:] {
		got := collect(spec)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("spec %#v: bag contents differ", spec)
		}
	}
}

func TestBagUnionRandomSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bags := make([]*Bag[int], 8)
	want := 0
	for i := range bags {
		bags[i] = NewBag[int]()
		n := rng.Intn(100)
		for j := 0; j < n; j++ {
			bags[i].Insert(want)
			want++
		}
	}
	for len(bags) > 1 {
		i := rng.Intn(len(bags) - 1)
		bags[i].Union(bags[i+1])
		bags = append(bags[:i+1], bags[i+2:]...)
	}
	if bags[0].Len() != want {
		t.Fatalf("merged bag has %d, want %d", bags[0].Len(), want)
	}
	seen := make(map[int]bool)
	bags[0].ForEach(func(x int) { seen[x] = true })
	if len(seen) != want {
		t.Fatalf("distinct = %d, want %d", len(seen), want)
	}
}

// intsum is cheetah's reducer_bench intsum (SNIPPETS.md §2): 99 spawned
// strands and the final continuation, t = 1..100, each add t to one
// op_add reducer n times, so the reducer ends at 5050·n.
func intsum(n int, sum *int64) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) {
		h := New[int64](c, "sum", OpAdd[int64](), 0)
		compute := func(c *cilk.Ctx, t int64) {
			for i := 0; i < n; i++ {
				h.Update(c, func(_ *cilk.Ctx, v int64) int64 { return v + t })
			}
		}
		for t := int64(1); t < 100; t++ {
			c.Spawn("compute_sum", func(cc *cilk.Ctx) { compute(cc, t) })
		}
		compute(c, 100)
		c.Sync()
		*sum = h.Value(c)
	}
}

func TestIntsum(t *testing.T) {
	const n = 50
	for _, spec := range []cilk.StealSpec{nil, cilk.StealAll{}, progs.RandomSpec{Seed: 3, P: 0.5}} {
		var sum int64
		cilk.Run(intsum(n, &sum), cilk.Config{Spec: spec})
		if sum != 5050*n {
			t.Errorf("spec %#v: sum = %d, want %d", spec, sum, 5050*n)
		}
	}
}

// BenchmarkIntsum is an update-heavy reducer benchmark: 100·n Updates per
// op, uninstrumented. Its allocs/op record what boxing each view into
// `any` costs per Update.
func BenchmarkIntsum(b *testing.B) {
	const n = 100
	for _, s := range []struct {
		name string
		spec cilk.StealSpec
	}{
		{"no-steals", nil},
		{"steal-all", cilk.StealAll{}},
		{"random", progs.RandomSpec{Seed: 3, P: 0.5}},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				cilk.Run(intsum(n, &sum), cilk.Config{Spec: s.spec})
			}
			if sum != 5050*n {
				b.Fatalf("sum = %d, want %d", sum, 5050*n)
			}
		})
	}
}
