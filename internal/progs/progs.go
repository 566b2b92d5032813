// Package progs contains small, well-understood Cilk programs used as
// fixtures throughout the repository: the paper's Figure 2 running-example
// dag, the Figure 1 linked-list program whose determinacy race hides inside
// a Reduce operation, and a handful of deliberately racy and race-free
// micro-programs. Tests, examples and the rader CLI all share these.
//
// The bridged programs (DedupWorkload, FerretWorkload, StressWorkload)
// are written once against BCtx, so the same program text runs on the
// serial executor and live on the work-stealing runtime; corpus.Lookup
// names them for every surface, rader -live included.
package progs

import (
	"repro/internal/cilk"
	"repro/internal/mem"
)

// SumMonoid is integer addition with identity 0.
var SumMonoid = cilk.MonoidFuncs(
	func(*cilk.Ctx) any { return 0 },
	func(_ *cilk.Ctx, l, r any) any { return l.(int) + r.(int) },
)

// Fig2 builds the running-example computation dag of the paper's Figure 2:
//
//	a: 1  spawn b   4  spawn c   10  call e   15  sync  16
//	b: 2 3
//	c: 5  spawn d   8  sync  9
//	d: 6 7
//	e: 11  spawn f  14  (implicit sync)
//	f: 12 13
//
// visit is invoked with the executing context at each numbered strand
// (1–16), in serial order, letting callers attach reducer-reads or memory
// accesses to specific strands. The peer-set equivalence classes of this
// dag are {1,16}, {2,3}, {4}, {5,9}, {6,7}, {8}, {10,11,15}, {12,13},
// {14} — every claim §3 and §4 make about it is checked in the tests.
func Fig2(visit func(c *cilk.Ctx, strand int)) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) {
		visit(c, 1)
		c.Spawn("b", func(c *cilk.Ctx) {
			visit(c, 2)
			visit(c, 3)
		})
		visit(c, 4)
		c.Spawn("c", func(c *cilk.Ctx) {
			visit(c, 5)
			c.Spawn("d", func(c *cilk.Ctx) {
				visit(c, 6)
				visit(c, 7)
			})
			visit(c, 8)
			c.Sync()
			visit(c, 9)
		})
		visit(c, 10)
		c.Call("e", func(c *cilk.Ctx) {
			visit(c, 11)
			c.Spawn("f", func(c *cilk.Ctx) {
				visit(c, 12)
				visit(c, 13)
			})
			visit(c, 14)
			c.Sync()
		})
		visit(c, 15)
		c.Sync()
		visit(c, 16)
	}
}

// Fig2Reads returns the Figure 2 program with a single reducer that is
// read (get_value) at exactly the listed strands. The reducer itself is
// constructed quietly, as if it were a global built before the computation,
// so only the listed reads participate in view-read race detection.
func Fig2Reads(readAt ...int) func(*cilk.Ctx) {
	set := make(map[int]bool, len(readAt))
	for _, s := range readAt {
		set[s] = true
	}
	return func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("h", SumMonoid, 0)
		Fig2(func(cc *cilk.Ctx, strand int) {
			if set[strand] {
				cc.Value(r)
			}
		})(c)
	}
}

// Fig2Strands is the number of strands in the Figure 2 fixture.
const Fig2Strands = 16

// Fig2PeerClasses are the peer-set equivalence classes of the Figure 2
// dag: reads within one class are race-free, reads across classes race.
var Fig2PeerClasses = [][]int{
	{1, 16}, {2, 3}, {4}, {5, 9}, {6, 7}, {8}, {10, 11, 15}, {12, 13}, {14},
}

// Fig5 builds the performance-dag example of the paper's Figure 5 and the
// §6 walk-through: function a spawns b, then c (which spawns d), then e
// (which spawns f), then syncs. Run it under Fig5Spec to steal a's three
// continuations (views α, β, γ, δ) and schedule the reductions as in the
// figure: r0 reduces α and β right after c returns, r1 reduces γ and δ at
// the sync, then r2 reduces the two survivors.
//
// visit is called at each site: "a:1".."a:5" for a's strands, and "b",
// "c:1","c:2","c:3", "d", "e:1","e:2", "f" inside the children. Every
// function updates a tag-list reducer so all four views materialize (a's
// fourth strand updates too, giving δ a view); reduceProbe observes each
// Reduce operation's inputs, letting tests issue instrumented accesses from
// inside a specific reduce strand — the paper's r1 is the Combine whose
// left view starts with "e".
func Fig5(visit func(*cilk.Ctx, string), reduceProbe func(c *cilk.Ctx, left, right []string)) func(*cilk.Ctx) {
	tagMonoid := cilk.MonoidFuncs(
		func(*cilk.Ctx) any { return []string(nil) },
		func(c *cilk.Ctx, l, r any) any {
			lt, rt := l.([]string), r.([]string)
			if reduceProbe != nil {
				reduceProbe(c, lt, rt)
			}
			return append(lt, rt...)
		},
	)
	return func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("h", tagMonoid, []string{"a"})
		upd := func(cc *cilk.Ctx, tag string) {
			cc.Update(r, func(_ *cilk.Ctx, v any) any { return append(v.([]string), tag) })
		}
		visit(c, "a:1")
		c.Spawn("b", func(cc *cilk.Ctx) {
			visit(cc, "b")
			upd(cc, "b")
		})
		visit(c, "a:2")
		c.Spawn("c", func(cc *cilk.Ctx) {
			visit(cc, "c:1")
			upd(cc, "c")
			cc.Spawn("d", func(ccc *cilk.Ctx) {
				visit(ccc, "d")
				upd(ccc, "d")
			})
			visit(cc, "c:2")
			cc.Sync()
			visit(cc, "c:3")
		})
		visit(c, "a:3")
		c.Spawn("e", func(cc *cilk.Ctx) {
			visit(cc, "e:1")
			upd(cc, "e")
			cc.Spawn("f", func(ccc *cilk.Ctx) {
				visit(ccc, "f")
				upd(ccc, "f")
			})
			visit(cc, "e:2")
			cc.Sync()
		})
		visit(c, "a:4")
		upd(c, "a4") // gives the δ context a view, so r1 runs user code
		c.Sync()
		visit(c, "a:5")
	}
}

// Fig5Spec is the schedule of Figure 5: steal all three continuations of
// the root function (minting views β, γ, δ) and reduce α⊗β (r0) as soon as
// c returns; the remaining reductions r1 = γ⊗δ and r2 = α⊗γ run at the
// sync, newest pair first.
type Fig5Spec struct{}

// ShouldSteal steals exactly the root function's continuations.
func (Fig5Spec) ShouldSteal(ci cilk.ContInfo) bool { return ci.Depth == 0 }

// Order implements cilk.StealSpec.
func (Fig5Spec) Order() cilk.ReduceOrder { return cilk.ReduceAtSync }

// ReducesAfterReturn schedules r0 right after the root's second spawned
// child (function c) returns.
func (Fig5Spec) ReducesAfterReturn(ci cilk.ContInfo) int {
	if ci.Depth == 0 && ci.Index == 2 {
		return 1
	}
	return 0
}

// ListNode models one node of the MyList singly linked list from the
// paper's Figure 1: user-defined, with head/tail pointers for O(1)
// concatenation. The "memory" the detectors watch is the Next-pointer slot
// of each node, which lives in a mem.Region supplied by the caller.
type ListNode struct {
	Value int
	Next  *ListNode
	Slot  int // index of this node's next-pointer in the list's region
}

// MyList is the Figure 1 list: head/tail plus the instrumented region
// holding one address per potential node.
type MyList struct {
	Head, Tail *ListNode
	Region     mem.Region
	nextSlot   *int // shared slot allocator, so copies stay consistent
}

// NewMyList creates an empty list whose node next-pointers live in region.
func NewMyList(region mem.Region) *MyList {
	n := 0
	return &MyList{Region: region, nextSlot: &n}
}

// ShallowCopy reproduces the Figure 1 bug: a new MyList object with its own
// head and tail pointers that still aliases the original nodes.
func (l *MyList) ShallowCopy() *MyList {
	return &MyList{Head: l.Head, Tail: l.Tail, Region: l.Region, nextSlot: l.nextSlot}
}

// EmptyLike returns an empty list sharing l's region and slot allocator, so
// its nodes never alias nodes of l — the building block of a correct deep
// copy.
func (l *MyList) EmptyLike() *MyList {
	return &MyList{Region: l.Region, nextSlot: l.nextSlot}
}

// Append inserts value at the tail, writing the predecessor's next pointer
// (an instrumented store) exactly as a real linked-list insert would.
func (l *MyList) Append(c *cilk.Ctx, value int) {
	slot := *l.nextSlot
	*l.nextSlot++
	n := &ListNode{Value: value, Slot: slot}
	if l.Tail == nil {
		l.Head, l.Tail = n, n
		return
	}
	c.Store(l.Region.At(l.Tail.Slot)) // write tail.Next
	l.Tail.Next = n
	l.Tail = n
}

// Concat splices other onto l in O(1), writing l's tail next pointer. This
// is what the list monoid's Reduce does — the write that races in Figure 1.
func (l *MyList) Concat(c *cilk.Ctx, other *MyList) {
	if other.Head == nil {
		return
	}
	if l.Tail == nil {
		l.Head, l.Tail = other.Head, other.Tail
		return
	}
	c.Store(l.Region.At(l.Tail.Slot)) // write tail.Next — the racy write
	l.Tail.Next = other.Head
	l.Tail = other.Tail
}

// Scan walks the list reading each node's next pointer (instrumented
// loads), returning the length — the paper's scan_list.
func (l *MyList) Scan(c *cilk.Ctx) int {
	n := 0
	for node := l.Head; node != nil; node = node.Next {
		c.Load(l.Region.At(node.Slot)) // read node.Next
		n++
	}
	return n
}

// Values returns the list contents, uninstrumented, for verification.
func (l *MyList) Values() []int {
	var out []int
	for node := l.Head; node != nil; node = node.Next {
		out = append(out, node.Value)
	}
	return out
}

// ListMonoid is the list_monoid of Figure 1: identity is an empty list
// sharing the same region; Reduce concatenates, performing the
// instrumented tail-next write.
func ListMonoid(region mem.Region, nextSlot *int) cilk.Monoid {
	return cilk.MonoidFuncs(
		func(*cilk.Ctx) any {
			return &MyList{Region: region, nextSlot: nextSlot}
		},
		func(c *cilk.Ctx, l, r any) any {
			left, right := l.(*MyList), r.(*MyList)
			left.Concat(c, right)
			return left
		},
	)
}

// Fig1Options tweak the Figure 1 program to exhibit its different bugs.
type Fig1Options struct {
	// N is the number of parallel list inserts update_list performs.
	N int
	// EarlyGetValue moves the get_value before the cilk_sync in
	// update_list, creating the view-read race §3 discusses.
	EarlyGetValue bool
	// SetValueAfterSpawn moves set_value after the spawn of foo, the other
	// view-read race variation §3 discusses (benign if foo does not
	// update, but still a race under peer-set semantics).
	SetValueAfterSpawn bool
	// DeepCopy fixes the §2 bug by deep-copying the list in race(), so the
	// scan and the inserts touch disjoint memory.
	DeepCopy bool
}

// Fig1 builds the paper's Figure 1 program: race() spawns scan_list(list)
// and calls update_list(n, copy) where copy shares nodes with list due to a
// shallow copy. The determinacy race is between scan_list's read of the
// last node's next pointer and the write of that same pointer performed
// inside the list reducer's Reduce operation. The returned program expects
// its node region in al.
func Fig1(al *mem.Allocator, opts Fig1Options) func(*cilk.Ctx) {
	if opts.N == 0 {
		opts.N = 4
	}
	region := al.Alloc("list-nodes", 16+4*opts.N)
	return func(c *cilk.Ctx) {
		list := NewMyList(region)
		// Seed the list with a few nodes before any parallelism.
		for i := 0; i < 3; i++ {
			list.Append(c, i)
		}
		var copy *MyList
		if opts.DeepCopy {
			copy = list.EmptyLike()
			for _, v := range list.Values() {
				copy.Append(c, v)
			}
		} else {
			copy = list.ShallowCopy()
		}
		// race(): length = cilk_spawn scan_list(list); update_list(n, copy);
		c.Spawn("scan_list", func(c *cilk.Ctx) {
			list.Scan(c)
		})
		c.Call("update_list", func(c *cilk.Ctx) {
			updateList(c, opts, copy, region)
		})
		c.Sync()
	}
}

func updateList(c *cilk.Ctx, opts Fig1Options, list *MyList, region mem.Region) {
	monoid := ListMonoid(region, list.nextSlot)
	r := c.NewReducer("list_reducer", monoid, list.EmptyLike())
	if !opts.SetValueAfterSpawn {
		c.SetValue(r, list)
	}
	// int x = cilk_spawn foo(n, list_reducer);
	c.Spawn("foo", func(c *cilk.Ctx) {
		c.Update(r, func(c *cilk.Ctx, v any) any {
			l := v.(*MyList)
			l.Append(c, 100)
			return l
		})
	})
	if opts.SetValueAfterSpawn {
		c.SetValue(r, list)
	}
	// cilk_for inserting n elements through the reducer.
	c.ParForGrain("insert", opts.N, 1, func(c *cilk.Ctx, i int) {
		c.Update(r, func(c *cilk.Ctx, v any) any {
			l := v.(*MyList)
			l.Append(c, 200+i)
			return l
		})
	})
	if opts.EarlyGetValue {
		c.Value(r)
	}
	c.Sync()
	if !opts.EarlyGetValue {
		c.Value(r)
	}
}

// SweepStress is the prefix-sharing benchmark program: a long serial
// preamble of instrumented accesses followed by a flat row of spawns whose
// children each touch a private slice of the region and bump a sum
// reducer. Every §7 specification of this program shares the preamble —
// the first continuation probe fires only after the first child returns —
// so a prefix-sharing sweep pays the preamble's detector cost once, while
// a per-specification sweep pays it once per specification. The program
// is race-free and ostensibly deterministic; with spawns = 7 its §7
// family has 92 members, comfortably past the ≥50-spec bar the benchmark
// calls for.
func SweepStress(al *mem.Allocator, spawns, preamble, body int) func(*cilk.Ctx) {
	region := al.Alloc("sweep-stress", preamble+spawns*body)
	return func(c *cilk.Ctx) {
		r := c.NewReducer("acc", SumMonoid, 0)
		for i := 0; i < preamble; i++ {
			c.Store(region.At(i))
			c.Load(region.At(i))
		}
		for s := 0; s < spawns; s++ {
			s := s
			c.Spawn("w", func(c *cilk.Ctx) {
				base := preamble + s*body
				for j := 0; j < body; j++ {
					c.Store(region.At(base + j))
					c.Load(region.At(base + j))
				}
				c.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
			})
		}
		c.Sync()
	}
}

// ReducerBench is the cheetah reducer_bench-style intsum stress loop: one
// flat row of spawns — 100 in the canonical configuration — whose children
// each add their index into a single int-sum reducer, with no other
// instrumented memory. It is the reducer-heavy program that makes 10^4+
// §7 families realistic: every continuation of the row lands in one sync
// block, so MaxSyncBlock equals spawns and the reduce family alone has
// K² + C(K,3) members (spawns = 40 → ~13k specifications, spawns = 100 →
// ~171k). The program is race-free and ostensibly deterministic; the
// returned sum is Σ i for i < spawns under every schedule, which the
// sweep's byte-identical verdicts across strategies implicitly re-prove.
func ReducerBench(al *mem.Allocator, spawns int) func(*cilk.Ctx) {
	// One token address per spawn keeps the shadow spaces materialized
	// enough for snapshot handoffs to carry real pages without dominating
	// unit cost.
	region := al.Alloc("reducer-bench", spawns)
	return func(c *cilk.Ctx) {
		r := c.NewReducer("intsum", SumMonoid, 0)
		for i := 0; i < spawns; i++ {
			i := i
			c.Spawn("add", func(c *cilk.Ctx) {
				c.Store(region.At(i))
				c.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + i })
			})
		}
		c.Sync()
	}
}
