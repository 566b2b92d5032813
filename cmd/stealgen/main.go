// Command stealgen profiles a program and emits the §7 steal-specification
// families that give SP+ complete coverage of all view-aware strands:
// Θ(M) specifications for update strands (Theorem 6) and Θ(K³) for reduce
// strands (Theorem 7).
//
// Usage:
//
//	stealgen -prog fib -scale test
//	stealgen -prog fig1 -list        # print every specification
//
// -prog names any program of the catalogue rader and raderd share
// (corpus.Lookup): the figures fig1, fig1-early, fig1-late, fig1-fixed
// and fig2, every internal/corpus entry, and the six benchmarks at
// -scale test|small|bench.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/specgen"
)

func main() {
	var (
		progName = flag.String("prog", "fig1", "program: fig1[-early|-late|-fixed], fig2, a corpus entry name, or a benchmark (collision, dedup, ferret, fib, knapsack, pbfs)")
		scaleStr = flag.String("scale", "test", "benchmark scale: test, small, bench")
		list     = flag.Bool("list", false, "print every specification, not just counts")
	)
	flag.Parse()

	prog, _, err := corpus.Lookup(*progName, *scaleStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stealgen:", err)
		os.Exit(2)
	}

	p := specgen.Measure(prog.Factory())
	fmt.Printf("profile of %s: max P-depth M=%d, max sync block K=%d, Cilk depth D=%d\n",
		*progName, p.MaxPDepth, p.MaxSyncBlock, p.CilkDepth)
	upd := specgen.UpdateSpecs(p)
	red := specgen.ReduceSpecs(p)
	fmt.Printf("update-strand family (Theorem 6): %d specifications\n", len(upd))
	fmt.Printf("reduce-strand family (Theorem 7): %d specifications (= K² + C(K,3) = %d)\n",
		len(red), specgen.DistinctReduceOps(p.MaxSyncBlock))
	if *list {
		for _, s := range upd {
			fmt.Println(" ", sched.Format(s))
		}
		for _, s := range red {
			fmt.Println(" ", sched.Format(s))
		}
	}
}
