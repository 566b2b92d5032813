// Listrace walks through the paper's Figure 1 program: a linked list
// wrapped in a reducer, scanned in parallel with inserts through a copy
// that was only shallow-copied. The determinacy race hides inside the
// reducer machinery — the write that collides with the scan is performed
// by an Update or Reduce operation on a view — so SP-bags misses its
// significance while SP+ pins it down, and only under schedules that
// actually steal.
package main

import (
	"fmt"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/sched"
	"repro/internal/spplus"
)

func main() {
	fmt.Println("== Figure 1: the shallow-copy linked-list program ==")

	// Serial schedule: the program misbehaves in no way SP+ can pin on
	// this execution.
	al := mem.NewAllocator()
	prog := progs.Fig1(al, progs.Fig1Options{})
	d := spplus.New()
	cilk.Run(prog, cilk.Config{Hooks: d})
	fmt.Printf("sp+ under the serial schedule:   %s\n", d.Report().Summary())

	// A schedule with steals: the scan of the shared nodes races with the
	// view-aware writes of the list reducer.
	out := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus, Spec: cilk.StealAll{}})
	fmt.Printf("sp+ under steal-all:             %s\n", out.Report.Summary())
	fmt.Printf("replayable via steal spec:       %s\n", out.Replay())

	// The replay label reproduces it exactly.
	spec, err := sched.Parse(out.Replay())
	if err != nil {
		panic(err)
	}
	again := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus, Spec: spec})
	fmt.Printf("replayed:                        %s\n", again.Report.Summary())

	// Peer-Set stays silent — this bug is not a view-read race.
	ps := peerset.New()
	cilk.Run(prog, cilk.Config{Hooks: ps})
	fmt.Printf("peer-set (not its kind of bug):  %s\n", ps.Report().Summary())

	// The §7 coverage sweep finds it without being told the schedule.
	// Every sweep run gets a fresh instance of the program.
	fig1 := func(opts progs.Fig1Options) func() func(*cilk.Ctx) {
		return func() func(*cilk.Ctx) { return progs.Fig1(mem.NewAllocator(), opts) }
	}
	cr := rader.Sweep(fig1(progs.Fig1Options{}), rader.SweepOptions{})
	fmt.Printf("coverage sweep (%d specs):        %d distinct race(s)\n", cr.SpecsRun, len(cr.Races))
	for _, f := range cr.Races {
		fmt.Printf("  elicited by %-12s %v\n", f.Spec, f.Race)
	}

	// And the fix: a deep copy separates the memory; the sweep is clean.
	crFixed := rader.Sweep(fig1(progs.Fig1Options{DeepCopy: true}), rader.SweepOptions{})
	fmt.Printf("after the deep-copy fix:         clean=%v across %d specs\n",
		crFixed.Clean(), crFixed.SpecsRun)
}
