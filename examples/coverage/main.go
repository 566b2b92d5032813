// Coverage demonstrates §7 of the paper: a single SP+ run checks one
// schedule, and a race hiding in a reduce operation shows up only under
// schedules that elicit that particular reduction. The generated Θ(M + K³)
// specification family checks them all.
package main

import (
	"fmt"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/spplus"
)

// buggyProg hides a race inside the monoid's Reduce: combining the
// segment views that contain markers "s2" and "s3" writes a location that
// strand s1 reads. Only schedules whose reduce tree merges exactly those
// adjacent views trigger the racy write.
func buggyProg(al *mem.Allocator) func(*cilk.Ctx) {
	region := al.Alloc("shared", 1)
	const k = 5
	return func(c *cilk.Ctx) {
		m := cilk.MonoidFuncs(
			func(*cilk.Ctx) any { return []string(nil) },
			func(cc *cilk.Ctx, l, r any) any {
				lt, rt := l.([]string), r.([]string)
				if len(lt) > 0 && lt[0] == "s2" && len(rt) > 0 && rt[0] == "s3" {
					cc.Store(region.At(0)) // the hidden racy write
				}
				return append(lt, rt...)
			},
		)
		h := c.NewReducerQuiet("tags", m, []string{"s0"})
		for i := 1; i <= k; i++ {
			tag := fmt.Sprintf("s%d", i)
			c.Spawn("seg", func(cc *cilk.Ctx) {
				if tag == "s1" {
					cc.Load(region.At(0)) // the other side of the race
				}
			})
			c.Update(h, func(_ *cilk.Ctx, v any) any { return append(v.([]string), tag) })
		}
		c.Sync()
	}
}

func main() {
	al := mem.NewAllocator()
	prog := buggyProg(al)

	fmt.Println("== One schedule is not enough ==")
	for _, name := range []string{"none", "all", "triple:1,2,4"} {
		spec, _ := sched.Parse(name)
		d := spplus.New()
		cilk.Run(prog, cilk.Config{Spec: spec, Hooks: d})
		fmt.Printf("spec %-14s -> %s\n", name, d.Report().Summary())
	}

	fmt.Println()
	fmt.Println("== The Θ(M + K³) family checks every reduce operation ==")
	prof := specgen.Measure(prog)
	fmt.Printf("profile: M=%d, K=%d -> %d update specs + %d reduce specs\n",
		prof.MaxPDepth, prof.MaxSyncBlock,
		len(specgen.UpdateSpecs(prof)), len(specgen.ReduceSpecs(prof)))

	// Every sweep run gets a fresh instance of the program.
	cr := rader.Sweep(func() func(*cilk.Ctx) { return buggyProg(mem.NewAllocator()) }, rader.SweepOptions{})
	fmt.Printf("sweep over %d specifications:\n", cr.SpecsRun)
	for _, f := range cr.Races {
		fmt.Printf("  FOUND by %-14s %v\n", f.Spec, f.Race)
	}
	if len(cr.Races) == 0 {
		fmt.Println("  (nothing found — unexpected!)")
	}
}
