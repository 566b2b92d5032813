package wsrt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

var sumMonoid = MonoidFuncs(
	func() any { return 0 },
	func(l, r any) any { return l.(int) + r.(int) },
)

var listMonoid = MonoidFuncs(
	func() any { return []int(nil) },
	func(l, r any) any { return append(l.([]int), r.([]int)...) },
)

var workerCounts = []int{1, 2, 4, 8}

func TestFibCorrect(t *testing.T) {
	var fib func(c *Ctx, n int, out *int64)
	fib = func(c *Ctx, n int, out *int64) {
		if n < 2 {
			atomic.AddInt64(out, int64(n))
			return
		}
		fib2 := func(m int) func(*Ctx) {
			return func(cc *Ctx) { fib(cc, m, out) }
		}
		c.Spawn(fib2(n - 1))
		fib(c, n-2, out)
		c.Sync()
	}
	for _, w := range workerCounts {
		var out int64
		New(w).Run(func(c *Ctx) { fib(c, 18, &out) })
		if out != 2584 {
			t.Fatalf("workers=%d: fib(18) accumulated %d, want 2584", w, out)
		}
	}
}

func TestReducerSumAcrossWorkers(t *testing.T) {
	for _, w := range workerCounts {
		var got int
		New(w).Run(func(c *Ctx) {
			r := c.NewReducer("sum", sumMonoid, 0)
			c.ParFor(1000, 16, func(cc *Ctx, i int) {
				cc.Update(r, func(v any) any { return v.(int) + i })
			})
			got = c.Value(r).(int)
		})
		if got != 499500 {
			t.Fatalf("workers=%d: sum = %d, want 499500", w, got)
		}
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	// The defining reducer property: a non-commutative (list) monoid
	// yields the serial-order result on every worker count, every run.
	want := make([]int, 300)
	for i := range want {
		want[i] = i
	}
	for _, w := range workerCounts {
		for trial := 0; trial < 3; trial++ {
			var got []int
			New(w).Run(func(c *Ctx) {
				r := c.NewReducer("list", listMonoid, []int(nil))
				c.ParFor(300, 7, func(cc *Ctx, i int) {
					cc.Update(r, func(v any) any { return append(v.([]int), i) })
				})
				got = c.Value(r).([]int)
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d trial=%d: list out of serial order", w, trial)
			}
		}
	}
}

func TestSegmentedParentUpdates(t *testing.T) {
	// Parent updates interleaved with spawns must stay in serial order:
	// a, (child b), c, (child d), e.
	for _, w := range workerCounts {
		var got []string
		New(w).Run(func(c *Ctx) {
			m := MonoidFuncs(
				func() any { return []string(nil) },
				func(l, r any) any { return append(l.([]string), r.([]string)...) },
			)
			r := c.NewReducer("tags", m, []string(nil))
			add := func(cc *Ctx, s string) {
				cc.Update(r, func(v any) any { return append(v.([]string), s) })
			}
			add(c, "a")
			c.Spawn(func(cc *Ctx) { add(cc, "b") })
			add(c, "c")
			c.Spawn(func(cc *Ctx) { add(cc, "d") })
			add(c, "e")
			c.Sync()
			got = c.Value(r).([]string)
		})
		if fmt.Sprint(got) != "[a b c d e]" {
			t.Fatalf("workers=%d: tags = %v, want [a b c d e]", w, got)
		}
	}
}

func TestNestedSyncBlocks(t *testing.T) {
	for _, w := range workerCounts {
		var got []int
		New(w).Run(func(c *Ctx) {
			r := c.NewReducer("list", listMonoid, []int(nil))
			for block := 0; block < 3; block++ {
				base := block * 10
				for i := 0; i < 4; i++ {
					v := base + i
					c.Spawn(func(cc *Ctx) {
						cc.Update(r, func(x any) any { return append(x.([]int), v) })
					})
				}
				c.Sync()
			}
			got = c.Value(r).([]int)
		})
		want := "[0 1 2 3 10 11 12 13 20 21 22 23]"
		if fmt.Sprint(got) != want {
			t.Fatalf("workers=%d: %v, want %v", w, got, want)
		}
	}
}

func TestStealsHappen(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling-dependent")
	}
	rt := New(4)
	rt.Run(func(c *Ctx) {
		r := c.NewReducer("sum", sumMonoid, 0)
		c.ParFor(2000, 1, func(cc *Ctx, i int) {
			cc.Update(r, func(v any) any { return v.(int) + 1 })
		})
	})
	if rt.Spawns() == 0 {
		t.Fatal("no spawns recorded")
	}
	// With GOMAXPROCS=1 steals may legitimately be zero; just exercise
	// the counters.
	t.Logf("spawns=%d steals=%d", rt.Spawns(), rt.Steals())
}

func TestQuickRandomTreesDeterministic(t *testing.T) {
	// Random spawn trees with list updates: result equals the 1-worker
	// result on every worker count.
	check := func(seed int64) bool {
		shape := func(s int64) []int {
			// derive a small tree shape from the seed
			var out []int
			x := uint64(s)
			for i := 0; i < 12; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				out = append(out, int(x%4))
			}
			return out
		}(seed)
		run := func(workers int) []int {
			var got []int
			New(workers).Run(func(c *Ctx) {
				r := c.NewReducer("l", listMonoid, []int(nil))
				var build func(cc *Ctx, depth, id int)
				build = func(cc *Ctx, depth, id int) {
					cc.Update(r, func(v any) any { return v.([]int) })
					n := shape[(depth*5+id)%len(shape)]
					for i := 0; i < n; i++ {
						val := depth*100 + id*10 + i
						cc.Update(r, func(v any) any { return append(v.([]int), val) })
						if depth < 3 {
							i := i
							cc.Spawn(func(c3 *Ctx) { build(c3, depth+1, i) })
						}
					}
					cc.Sync()
				}
				build(c, 0, 0)
				got = c.Value(r).([]int)
			})
			return got
		}
		want := run(1)
		for _, w := range []int{2, 5} {
			if fmt.Sprint(run(w)) != fmt.Sprint(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		rt := New(w)
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("workers=%d: panic must propagate to Run", w)
				}
				if s, ok := p.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: wrong panic value %v", w, p)
				}
			}()
			rt.Run(func(c *Ctx) {
				for i := 0; i < 8; i++ {
					i := i
					c.Spawn(func(cc *Ctx) {
						if i == 5 {
							panic("boom")
						}
					})
				}
				c.Sync()
			})
		}()
		// The runtime stays usable after a panicking run.
		var ok bool
		rt.Run(func(c *Ctx) { ok = true })
		if !ok {
			t.Fatalf("workers=%d: runtime unusable after panic", w)
		}
	}
}

func TestParForEdgeCases(t *testing.T) {
	rt := New(2)
	// Both workers may run bodies, so the count must be atomic.
	var ran atomic.Int64
	rt.Run(func(c *Ctx) {
		c.ParFor(0, 4, func(*Ctx, int) { ran.Add(1) })
		c.ParFor(-5, 4, func(*Ctx, int) { ran.Add(1) })
		c.ParFor(3, -1, func(*Ctx, int) { ran.Add(1) }) // grain repaired to 1
	})
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran = %d, want 3", n)
	}
}

func TestValueOfUnknownReducer(t *testing.T) {
	rt := New(1)
	rt.Run(func(c *Ctx) {
		r := &Reducer{name: "detached", m: sumMonoid}
		if got := c.Value(r); got.(int) != 0 {
			t.Fatalf("unknown reducer reads identity, got %v", got)
		}
	})
}
