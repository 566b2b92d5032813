// Package corpus is a catalogue of small named Cilk programs with known
// race verdicts — the executable semantics documentation of this
// repository. Each entry states, for every detector configuration, whether
// a race must be reported; the corpus test sweeps the whole matrix, so any
// semantic drift in the executor or a detector trips a named, readable
// failure. The entries cover the bug taxonomy of the paper: plain
// determinacy races, view-read races of both §3 flavours, races hiding in
// Update/Create-Identity/Reduce operations that only some schedules
// elicit, and the correct patterns that must stay silent.
//
// Lookup resolves every program name of the repository — the paper's
// figures, these entries, the bridged programs and the six benchmarks —
// for rader, raderd and stealgen alike.
package corpus

import (
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/reducer"
)

// Entry is one catalogued program.
type Entry struct {
	Name string
	Desc string
	// Build constructs a fresh rerunnable instance.
	Build func(al *mem.Allocator) func(*cilk.Ctx)

	// Expected verdicts.
	ViewRead    bool // Peer-Set reports a view-read race
	DetSerial   bool // SP+ reports a determinacy race under NoSteals
	DetStealAll bool // SP+ reports one under StealAll
	DetSweep    bool // the §7 sweep finds a determinacy race
	// Oblivious marks programs with no reducer machinery, on which the
	// reducer-oblivious baseline SP-bags must agree with SP+ exactly.
	Oblivious bool
}

// All returns the catalogue.
func All() []Entry {
	return []Entry{
		{
			Name: "clean-reducer-sum",
			Desc: "parallel updates through an opadd reducer, read after sync",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
					c.ParForGrain("w", 24, 2, func(cc *cilk.Ctx, i int) {
						h.Update(cc, func(_ *cilk.Ctx, v int) int { return v + i })
					})
					_ = h.Value(c)
				}
			},
		},
		{
			Name: "view-read-early-get",
			Desc: "get_value before the sync (§3)",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
					c.Spawn("u", func(cc *cilk.Ctx) {
						h.Update(cc, func(_ *cilk.Ctx, v int) int { return v + 1 })
					})
					_ = h.Value(c) // before sync
					c.Sync()
				}
			},
			ViewRead: true,
		},
		{
			Name: "view-read-set-after-spawn",
			Desc: "set_value after a spawn (§3's benign-but-still-a-race variant)",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
					c.Spawn("u", func(*cilk.Ctx) {})
					h.Set(c, 42)
					c.Sync()
					_ = h.Value(c)
				}
			},
			ViewRead: true,
		},
		{
			Name: "oblivious-write-read",
			Desc: "spawned write races the continuation's read",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					c.Spawn("w", func(cc *cilk.Ctx) { cc.Store(x.At(0)) })
					c.Load(x.At(0))
					c.Sync()
				}
			},
			DetSerial: true, DetStealAll: true, DetSweep: true, Oblivious: true,
		},
		{
			Name: "oblivious-write-write-siblings",
			Desc: "two spawned siblings write one location",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					c.Spawn("w1", func(cc *cilk.Ctx) { cc.Store(x.At(0)) })
					c.Spawn("w2", func(cc *cilk.Ctx) { cc.Store(x.At(0)) })
					c.Sync()
				}
			},
			DetSerial: true, DetStealAll: true, DetSweep: true, Oblivious: true,
		},
		{
			Name: "oblivious-sync-separated",
			Desc: "sync between conflicting accesses",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					c.Spawn("w", func(cc *cilk.Ctx) { cc.Store(x.At(0)) })
					c.Sync()
					c.Load(x.At(0))
				}
			},
			Oblivious: true,
		},
		{
			Name: "oblivious-call-serial",
			Desc: "called child is serial with the caller",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					c.Call("f", func(cc *cilk.Ctx) { cc.Store(x.At(0)) })
					c.Load(x.At(0))
				}
			},
			Oblivious: true,
		},
		{
			Name: "update-write-vs-oblivious-read",
			Desc: "a reducer Update writes a location a parallel strand reads; same view serially, parallel views once stolen",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "h", reducer.OpAdd[int](), 0)
					c.Spawn("r", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
					h.Update(c, func(cc *cilk.Ctx, v int) int {
						cc.Store(x.At(0))
						return v + 1
					})
					c.Sync()
				}
			},
			DetStealAll: true, DetSweep: true,
		},
		{
			Name: "figure1-shallow-copy",
			Desc: "the paper's Figure 1: the racing write hides in the list reducer's view operations",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return progs.Fig1(al, progs.Fig1Options{})
			},
			DetStealAll: true, DetSweep: true,
		},
		{
			Name: "figure1-deep-copy",
			Desc: "the fix: a deep copy separates the memory",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return progs.Fig1(al, progs.Fig1Options{DeepCopy: true})
			},
		},
		{
			Name: "reduce-strand-race-hidden",
			Desc: "the racy write runs only in the Reduce combining two particular views; steal-all's reduce tree happens to elicit it, and the sweep must",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					m := cilk.MonoidFuncs(
						func(*cilk.Ctx) any { return []string(nil) },
						func(cc *cilk.Ctx, l, r any) any {
							lt, rt := l.([]string), r.([]string)
							if len(lt) > 0 && lt[0] == "s2" && len(rt) > 0 && rt[0] == "s3" {
								cc.Store(x.At(0))
							}
							return append(lt, rt...)
						},
					)
					h := c.NewReducerQuiet("tags", m, []string{"s0"})
					for i := 1; i <= 5; i++ {
						tag := []string{"s1", "s2", "s3", "s4", "s5"}[i-1]
						c.Spawn("seg", func(cc *cilk.Ctx) {
							if tag == "s1" {
								cc.Load(x.At(0))
							}
						})
						c.Update(h, func(_ *cilk.Ctx, v any) any { return append(v.([]string), tag) })
					}
					c.Sync()
				}
			},
			DetStealAll: true, DetSweep: true,
		},
		{
			Name: "create-identity-race",
			Desc: "the identity constructor writes a location a parallel strand reads",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					m := cilk.MonoidFuncs(
						func(cc *cilk.Ctx) any { cc.Store(x.At(0)); return 0 },
						func(_ *cilk.Ctx, l, r any) any { return l.(int) + r.(int) },
					)
					h := c.NewReducerQuiet("h", m, 0)
					c.Spawn("r", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
					c.Update(h, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
					c.Sync()
				}
			},
			DetStealAll: true, DetSweep: true,
		},
		{
			Name: "holder-private-scratch",
			Desc: "a holder gives each view context private workspace; no races anywhere",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[[]byte](c, "scratch",
						reducer.Holder[[]byte](func() []byte { return make([]byte, 4) }),
						make([]byte, 4))
					c.ParForGrain("w", 12, 1, func(cc *cilk.Ctx, i int) {
						h.Update(cc, func(_ *cilk.Ctx, buf []byte) []byte {
							buf[0] = byte(i)
							return buf
						})
					})
				}
			},
		},
		{
			Name: "ostream-clean",
			Desc: "parallel writers through an ostream reducer; output deterministic, no races",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[*reducer.Ostream](c, "out", reducer.OstreamMonoid(), &reducer.Ostream{})
					c.ParForGrain("emit", 10, 1, func(cc *cilk.Ctx, i int) {
						h.Update(cc, func(_ *cilk.Ctx, o *reducer.Ostream) *reducer.Ostream {
							o.Printf("%d;", i)
							return o
						})
					})
					_ = h.Value(c)
				}
			},
		},
		{
			Name: "bag-clean",
			Desc: "pennant-bag inserts in parallel; bag unions at reduces, no races",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[*reducer.Bag[int]](c, "bag", reducer.BagMonoid[int](), reducer.NewBag[int]())
					c.ParForGrain("ins", 20, 2, func(cc *cilk.Ctx, i int) {
						h.Update(cc, func(_ *cilk.Ctx, b *reducer.Bag[int]) *reducer.Bag[int] {
							b.Insert(i)
							return b
						})
					})
					_ = h.Value(c)
				}
			},
		},
		{
			Name: "linked-list-clean",
			Desc: "O(1)-splice linked-list reducer used correctly",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[*reducer.LinkedList[int]](c, "ll",
						reducer.LinkedListMonoid[int](), &reducer.LinkedList[int]{})
					c.ParForGrain("app", 16, 1, func(cc *cilk.Ctx, i int) {
						h.Update(cc, func(_ *cilk.Ctx, l *reducer.LinkedList[int]) *reducer.LinkedList[int] {
							l.PushBack(i)
							return l
						})
					})
					_ = h.Value(c)
				}
			},
		},
		{
			Name: "view-read-in-spawned-child",
			Desc: "a spawned child reads a reducer its siblings update — different peer set from the creating read",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
					c.Spawn("u", func(cc *cilk.Ctx) {
						cc.Update(h.R, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
					})
					c.Spawn("reader", func(cc *cilk.Ctx) { _ = h.Value(cc) })
					c.Sync()
				}
			},
			ViewRead: true,
		},
		{
			Name: "nested-frames-clean",
			Desc: "reducer updated across three nesting levels of spawns and calls",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
					var rec func(cc *cilk.Ctx, d int)
					rec = func(cc *cilk.Ctx, d int) {
						h.Update(cc, func(_ *cilk.Ctx, v int) int { return v + 1 })
						if d == 0 {
							return
						}
						cc.Spawn("s", func(c3 *cilk.Ctx) { rec(c3, d-1) })
						cc.Call("c", func(c3 *cilk.Ctx) { rec(c3, d-1) })
						cc.Sync()
					}
					rec(c, 3)
					_ = h.Value(c)
				}
			},
		},
		{
			Name: "oblivious-read-read",
			Desc: "parallel reads of one location are never a race",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				x := al.Alloc("x", 1)
				return func(c *cilk.Ctx) {
					c.Spawn("r1", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
					c.Spawn("r2", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
					c.Load(x.At(0))
					c.Sync()
				}
			},
			Oblivious: true,
		},
		{
			Name: "two-reducers-one-racy-read",
			Desc: "two reducers; only one is read before the sync",
			Build: func(al *mem.Allocator) func(*cilk.Ctx) {
				return func(c *cilk.Ctx) {
					a := reducer.New[int](c, "a", reducer.OpAdd[int](), 0)
					b := reducer.New[int](c, "b", reducer.OpAdd[int](), 0)
					c.Spawn("u", func(cc *cilk.Ctx) {
						a.Update(cc, func(_ *cilk.Ctx, v int) int { return v + 1 })
						b.Update(cc, func(_ *cilk.Ctx, v int) int { return v + 1 })
					})
					_ = b.Value(c) // racy read of b only
					c.Sync()
					_ = a.Value(c) // fine
				}
			},
			ViewRead: true,
		},
	}
}
