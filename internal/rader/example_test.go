package rader_test

import (
	"fmt"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/reducer"
)

// Example runs SP+ on a program whose reducer Update writes a location
// that a spawned sibling reads: clean on the serial schedule, racy once
// the continuation is stolen onto a parallel view.
func Example() {
	al := mem.NewAllocator()
	x := al.Alloc("shared", 1)
	prog := func(c *cilk.Ctx) {
		h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
		c.Spawn("reader", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
		h.Update(c, func(cc *cilk.Ctx, v int) int {
			cc.Store(x.At(0))
			return v + 1
		})
		c.Sync()
	}

	serial := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus})
	fmt.Println("serial:", serial.Report.Summary())

	stolen := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus, Spec: cilk.StealAll{}})
	fmt.Println("stolen:", stolen.Report.Distinct(), "distinct race(s)")

	// Output:
	// serial: no races detected
	// stolen: 1 distinct race(s)
}

// ExampleSweep sweeps the §7 specification family over a program,
// finding races no single schedule is guaranteed to show. The factory
// builds a fresh instance for every run of the sweep.
func ExampleSweep() {
	factory := func() func(*cilk.Ctx) {
		al := mem.NewAllocator()
		x := al.Alloc("shared", 1)
		return func(c *cilk.Ctx) {
			h := reducer.New[int](c, "sum", reducer.OpAdd[int](), 0)
			c.Spawn("reader", func(cc *cilk.Ctx) { cc.Load(x.At(0)) })
			h.Update(c, func(cc *cilk.Ctx, v int) int {
				cc.Store(x.At(0))
				return v + 1
			})
			c.Sync()
		}
	}
	cr := rader.Sweep(factory, rader.SweepOptions{})
	fmt.Println("clean:", cr.Clean())
	fmt.Println("findings:", len(cr.Races))
	// Output:
	// clean: false
	// findings: 1
}
