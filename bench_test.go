// Package repro's root benchmarks check the asymptotic claims — Theorem
// 1 (Peer-Set in O(T·α)), Theorem 5 (SP+ in O((T+Mτ)·α)), Theorems 6/7
// (specification family generation) — the ablations DESIGN.md calls out,
// and the §7 sweep's two speedups: prefix sharing over the per-spec
// reference and work stealing across eight lanes. The paper's Figures 7
// and 8 come from the repository benchmark's live workload (bench/).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/reducer"
	"repro/internal/sched"
	"repro/internal/spbags"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/wsrt"
)

// BenchmarkPeerSetScaling checks Theorem 1: Peer-Set's cost grows
// near-linearly with the serial running time T (fib's T roughly triples
// per +2 of n; per-op times should scale likewise, the α factor being
// effectively constant).
func BenchmarkPeerSetScaling(b *testing.B) {
	for _, n := range []int{12, 15, 18, 21} {
		n := n
		b.Run(fmt.Sprintf("T=fib(%d)", n), func(b *testing.B) {
			prog := fibReducerProg(n)
			for i := 0; i < b.N; i++ {
				d := peerset.New()
				cilk.Run(prog, cilk.Config{Hooks: d})
			}
		})
	}
}

// BenchmarkSPPlusScalingT checks the T term of Theorem 5.
func BenchmarkSPPlusScalingT(b *testing.B) {
	for _, n := range []int{12, 15, 18, 21} {
		n := n
		b.Run(fmt.Sprintf("T=fib(%d)", n), func(b *testing.B) {
			prog := fibReducerProg(n)
			for i := 0; i < b.N; i++ {
				d := spplus.New()
				cilk.Run(prog, cilk.Config{Hooks: d})
			}
		})
	}
}

// BenchmarkSPPlusScalingM checks the M·τ term of Theorem 5: a fixed
// program under specifications with growing steal counts M; each steal
// adds a view and a reduce operation of cost τ.
func BenchmarkSPPlusScalingM(b *testing.B) {
	prog := fibReducerProg(16)
	specs := []struct {
		name string
		spec cilk.StealSpec
	}{
		{"M=0", nil},
		{"M=depth3", sched.ByDepth{D: 3}},
		{"M=depth6", sched.ByDepth{D: 6}},
		{"M=all", cilk.StealAll{}},
	}
	for _, s := range specs {
		s := s
		b.Run(s.name, func(b *testing.B) {
			var steals int
			for i := 0; i < b.N; i++ {
				d := spplus.New()
				res := cilk.Run(prog, cilk.Config{Spec: s.spec, Hooks: d})
				steals = len(res.Steals)
			}
			b.ReportMetric(float64(steals), "steals/run")
		})
	}
}

// BenchmarkSPPlusScalingTau isolates τ: same steal count, reduce
// operations of growing cost.
func BenchmarkSPPlusScalingTau(b *testing.B) {
	for _, tau := range []int{1, 16, 256} {
		tau := tau
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			prog := func(c *cilk.Ctx) {
				m := cilk.MonoidFuncs(
					func(*cilk.Ctx) any { return 0 },
					func(_ *cilk.Ctx, l, r any) any {
						s := l.(int) + r.(int)
						for i := 0; i < tau; i++ { // τ units of reduce work
							s = s*1664525 + 1013904223
						}
						return s
					},
				)
				r := c.NewReducer("h", m, 0)
				for i := 0; i < 64; i++ {
					c.Spawn("u", func(cc *cilk.Ctx) {
						cc.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
					})
				}
				c.Sync()
			}
			for i := 0; i < b.N; i++ {
				d := spplus.New()
				cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: d})
			}
		})
	}
}

// BenchmarkAblationPStacks measures what SP+'s P stacks and view IDs cost
// over plain SP-bags on a reducer-free workload (DESIGN.md ablation 1).
func BenchmarkAblationPStacks(b *testing.B) {
	al := mem.NewAllocator()
	prog := progs.Random(al, progs.RandomOpts{Seed: 42, NoReducers: true, MaxDepth: 7, MaxStmts: 8})
	b.Run("sp-bags", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := spbags.New()
			cilk.Run(prog, cilk.Config{Hooks: d})
		}
	})
	b.Run("sp-plus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := spplus.New()
			cilk.Run(prog, cilk.Config{Hooks: d})
		}
	})
}

// BenchmarkAblationLabeling compares SP-bags against the two §9 labeling
// schemes (Mellor-Crummey offset-span, Nudler-Rudolph English-Hebrew):
// O(α) constant-size bag operations versus O(depth) reusable labels versus
// ever-growing static labels, on a deep spawn tree.
func BenchmarkAblationLabeling(b *testing.B) {
	al := mem.NewAllocator()
	x := al.Alloc("xs", 64)
	var nest func(c *cilk.Ctx, d int)
	nest = func(c *cilk.Ctx, d int) {
		if d == 0 {
			c.Load(x.At(0))
			c.Store(x.At(1 + d%63))
			return
		}
		c.Spawn("n", func(cc *cilk.Ctx) { nest(cc, d-1) })
		c.Load(x.At(d % 64))
		c.Sync()
	}
	prog := func(c *cilk.Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn("t", func(cc *cilk.Ctx) { nest(cc, 48) })
		}
		c.Sync()
	}
	for _, det := range []rader.DetectorName{rader.SPBags, rader.OffsetSpan, rader.EnglishHebrew} {
		det := det
		b.Run(string(det), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rader.MustRun(prog, rader.Config{Detector: det})
			}
		})
	}
}

// BenchmarkAblationLazyViews compares the runtime's lazy view creation
// (§1's optimization) against eagerly materializing identity views at
// every steal (DESIGN.md ablation 4), on a program with several reducers
// of which each strand updates only one.
func BenchmarkAblationLazyViews(b *testing.B) {
	prog := func(c *cilk.Ctx) {
		reds := make([]reducer.Handle[int], 8)
		for i := range reds {
			reds[i] = reducer.New[int](c, "r", reducer.OpAdd[int](), 0)
		}
		c.ParForGrain("upd", 512, 1, func(cc *cilk.Ctx, i int) {
			reds[i%8].Update(cc, func(_ *cilk.Ctx, v int) int { return v + 1 })
		})
	}
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		eager := eager
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, EagerViews: eager})
			}
		})
	}
}

// BenchmarkSpecGenFamilies times the §7 family construction (Theorems 6
// and 7) for growing sync-block sizes.
func BenchmarkSpecGenFamilies(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			p := specgen.Profile{MaxPDepth: k, MaxSyncBlock: k}
			for i := 0; i < b.N; i++ {
				if len(specgen.All(p)) == 0 {
					b.Fatal("empty family")
				}
			}
		})
	}
}

// BenchmarkCoverageSweep times the full §7 check of the Figure 1 program.
func BenchmarkCoverageSweep(b *testing.B) {
	factory := func() func(*cilk.Ctx) { return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{}) }
	for i := 0; i < b.N; i++ {
		if cr := rader.Sweep(factory, rader.SweepOptions{}); len(cr.Races) == 0 {
			b.Fatal("sweep must find the Figure 1 race")
		}
	}
}

// BenchmarkCoverageSweepScaling shows the Θ(M + K³) sweep cost growing
// with the sync-block size K — the §7 trade-off between coverage and
// work: each +2 of K roughly doubles-to-triples the family.
func BenchmarkCoverageSweepScaling(b *testing.B) {
	for _, k := range []int{3, 5, 7, 9} {
		k := k
		factory := func() func(*cilk.Ctx) {
			return func(c *cilk.Ctx) {
				r := c.NewReducer("h", reducer.OpAdd[int](), 0)
				for i := 0; i < k; i++ {
					c.Spawn("u", func(cc *cilk.Ctx) {
						cc.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
					})
				}
				c.Sync()
			}
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var specs int
			for i := 0; i < b.N; i++ {
				cr := rader.Sweep(factory, rader.SweepOptions{})
				specs = cr.SpecsRun
			}
			b.ReportMetric(float64(specs), "specs")
		})
	}
}

// BenchmarkSweep times the §7 coverage sweep against the per-specification
// reference sweep (rader.SweepReference, the "naive" case) on the
// SweepStress workload (92 specifications, long serial preamble shared by
// every unit). Workers is pinned to 1 so the ratio of the two ns/op
// measures work saved, not scheduling.
func BenchmarkSweep(b *testing.B) {
	factory := func() func(*cilk.Ctx) {
		return progs.SweepStress(mem.NewAllocator(), 7, 2048, 64)
	}
	if specs := len(specgen.All(specgen.Measure(factory()))); specs < 50 {
		b.Fatalf("benchmark family has %d specs, want >= 50", specs)
	}
	for _, mode := range []struct {
		name  string
		sweep func() *rader.CoverageResult
	}{
		{"naive", func() *rader.CoverageResult { return rader.SweepReference(factory, 0, 0) }},
		{"prefix", func() *rader.CoverageResult { return rader.Sweep(factory, rader.SweepOptions{Workers: 1}) }},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var cr *rader.CoverageResult
			for i := 0; i < b.N; i++ {
				cr = mode.sweep()
			}
			if !cr.Complete() || !cr.Clean() {
				b.Fatalf("benchmark sweep misbehaved: failures=%v races=%v", cr.Failures, cr.Races)
			}
			b.ReportMetric(float64(cr.SpecsRun), "specs")
			b.ReportMetric(float64(cr.Stats.Groups), "groups")
		})
	}
}

// BenchmarkSweepStealing runs the prefix sweep of the 10⁴-specification
// ReducerBench(40) family at one lane and at eight. Wall clock on a host
// with fewer than eight cores only adds time-slicing, so critical-path-x
// compares busy time instead: the one-lane sweep's total over the busiest
// of the eight lanes (Stats.WorkerBusy, thread CPU time on Linux), the
// wall-clock speedup an idle eight-core host would see.
func BenchmarkSweepStealing(b *testing.B) {
	factory := func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), 40) }
	var serial, busiest int64
	var eight *rader.CoverageResult
	for i := 0; i < b.N; i++ {
		one := rader.Sweep(factory, rader.SweepOptions{Workers: 1})
		eight = rader.Sweep(factory, rader.SweepOptions{Workers: 8})
		if !one.Complete() || !eight.Complete() || one.SpecsRun != eight.SpecsRun {
			b.Fatalf("sweeps misbehaved: %d vs %d specs, failures %v / %v",
				one.SpecsRun, eight.SpecsRun, one.Failures, eight.Failures)
		}
		for _, ns := range one.Stats.WorkerBusy {
			serial += ns
		}
		var lane int64
		for _, ns := range eight.Stats.WorkerBusy {
			lane = max(lane, ns)
		}
		busiest += lane
	}
	if serial <= 0 || busiest <= 0 {
		b.Fatalf("degenerate busy accounting: serial %d ns, busiest lane %d ns", serial, busiest)
	}
	b.ReportMetric(float64(serial)/float64(busiest), "critical-path-x")
	b.ReportMetric(float64(eight.SpecsRun), "specs")
	b.ReportMetric(float64(eight.Stats.Steals), "steals")
}

// BenchmarkWSRT measures the parallel runtime's spawn/join throughput by
// worker count.
func BenchmarkWSRT(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			rt := wsrt.New(w)
			m := wsrt.MonoidFuncs(func() any { return 0 }, func(l, r any) any { return l.(int) + r.(int) })
			for i := 0; i < b.N; i++ {
				var got int
				rt.Run(func(c *wsrt.Ctx) {
					h := c.NewReducer("sum", m, 0)
					c.ParFor(2048, 32, func(cc *wsrt.Ctx, j int) {
						cc.Update(h, func(v any) any { return v.(int) + 1 })
					})
					got = c.Value(h).(int)
				})
				if got != 2048 {
					b.Fatalf("sum = %d", got)
				}
			}
		})
	}
}

// fibReducerProg is the Theorem 1/5 scaling workload: fib with an opadd
// reducer and per-frame instrumented locals.
func fibReducerProg(n int) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) {
		h := reducer.New[int](c, "calls", reducer.OpAdd[int](), 0)
		next := mem.Addr(1)
		var rec func(c *cilk.Ctx, n int) int
		rec = func(c *cilk.Ctx, n int) int {
			h.Update(c, func(_ *cilk.Ctx, v int) int { return v + 1 })
			if n < 2 {
				return n
			}
			local := next
			next++
			var a, b int
			c.Spawn("fib", func(cc *cilk.Ctx) {
				a = rec(cc, n-1)
				cc.Store(local)
			})
			c.Call("fib", func(cc *cilk.Ctx) { b = rec(cc, n-2) })
			c.Sync()
			c.Load(local)
			return a + b
		}
		rec(c, n)
	}
}
