// Command benchtab regenerates the paper's evaluation tables — Figure 7
// (overhead over no instrumentation) and Figure 8 (overhead over an empty
// tool) — on this host, printing the paper's numbers alongside.
//
// Usage:
//
//	benchtab                    # both tables, bench scale
//	benchtab -table 7 -trials 5
//	benchtab -table parallel    # depa critical-path scaling table
//	benchtab -apps fib,pbfs -scale small
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/tables"
)

// benchDoc is the machine-readable benchmark artifact -json emits
// (BENCH_PR3.json / BENCH_PR5.json / BENCH_PR7.json / BENCH_PR8.json in
// the repo): the replay-throughput comparison behind the single-pass
// engine, the naive-vs-prefix sweep comparison behind the steal-decision
// trie, the parallel-detection scaling table behind the depa detector,
// the static-elision shrink/parity table, plus the regenerated Figure
// 7/8 tables. Schema 2 added the sweep section; schema 3 added the
// parallel section; schema 4 added the elide section; schema 5 added the
// sweep section's work-stealing fields (stress family, critical-path
// speedup, steals/handoffs).
type benchDoc struct {
	Schema   int                   `json:"schema"`
	Scale    string                `json:"scale"`
	Trials   int                   `json:"trials"`
	Replay   *tables.ReplayBench   `json:"replay"`
	Sweep    *tables.SweepBench    `json:"sweep"`
	Parallel *tables.ParallelBench `json:"parallel"`
	Elide    *tables.ElideBench    `json:"elide"`
	Figure7  *tables.Table         `json:"figure7"`
	Figure8  *tables.Table         `json:"figure8"`
	Headline struct {
		Fig7PeerSet float64 `json:"fig7PeerSet"`
		Fig7SPPlus  float64 `json:"fig7SpPlus"`
		Fig8PeerSet float64 `json:"fig8PeerSet"`
		Fig8SPPlus  float64 `json:"fig8SpPlus"`
	} `json:"headline"`
}

func main() {
	var (
		table    = flag.String("table", "both", "which table: 7, 8, both, sweep, parallel, elide")
		trials   = flag.Int("trials", 3, "timing repetitions per cell (median)")
		scaleStr = flag.String("scale", "bench", "input scale: test, small, bench")
		appsStr  = flag.String("apps", "", "comma-separated benchmark subset (default all)")
		seed     = flag.Int64("seed", 0, "seed for the check-reductions schedule")
		quiet    = flag.Bool("q", false, "suppress per-cell progress")
		csv      = flag.Bool("csv", false, "emit CSV instead of the rendered tables")
		jsonPath = flag.String("json", "", "also write the machine-readable benchmark document (tables + replay throughput) to this path")
	)
	flag.Parse()

	sc, err := apps.ParseScale(*scaleStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(2)
	}
	opts := tables.Options{Scale: sc, Trials: *trials, Seed: *seed}
	if *appsStr != "" {
		opts.Apps = strings.Split(*appsStr, ",")
	}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	// -table sweep on its own skips the (much slower) figure tables; the
	// -json document always carries every section.
	var sweep *tables.SweepBench
	if *jsonPath != "" || *table == "sweep" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "measuring sweep throughput...")
		}
		var err error
		sweep, err = tables.MeasureSweep(*trials)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	if *table == "sweep" && *jsonPath == "" {
		fmt.Println("=== §7 coverage sweep: naive vs prefix-sharing ===")
		fmt.Print(sweep.Render())
		return
	}

	// -table parallel on its own likewise skips the figure tables; the
	// -json document always carries the parallel section too.
	var parallel *tables.ParallelBench
	if *jsonPath != "" || *table == "parallel" {
		popts := tables.ParallelOptions{Trials: *trials}
		if !*quiet {
			popts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
			fmt.Fprintln(os.Stderr, "measuring parallel-detection scaling...")
		}
		var err error
		parallel, err = tables.MeasureParallel(popts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	if *table == "parallel" && *jsonPath == "" {
		fmt.Println("=== depa parallel detection: critical-path scaling ===")
		fmt.Print(parallel.Render())
		return
	}

	// -table elide on its own likewise skips the figure tables; the
	// -json document always carries the elide section too. The shrink
	// measurement always runs at small scale — shrink ratios are
	// scale-stable and the parity check replays every trace seven times.
	var elided *tables.ElideBench
	if *jsonPath != "" || *table == "elide" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "measuring static elision...")
		}
		var err error
		elided, err = tables.MeasureElide(*trials, apps.Small, "small")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	if *table == "elide" && *jsonPath == "" {
		fmt.Println("=== static elision: trace shrink and verdict parity ===")
		fmt.Print(elided.Render())
		return
	}

	fig7, fig8, err := tables.Generate(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "measuring replay throughput...")
		}
		rb, err := tables.MeasureReplay(*trials)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		doc := benchDoc{Schema: 5, Scale: *scaleStr, Trials: *trials, Replay: rb, Sweep: sweep, Parallel: parallel, Elide: elided, Figure7: fig7, Figure8: fig8}
		doc.Headline.Fig7PeerSet, doc.Headline.Fig7SPPlus = fig7.Headline(true)
		doc.Headline.Fig8PeerSet, doc.Headline.Fig8SPPlus = fig8.Headline(true)
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (replay speedup %.2fx, sweep speedup %.2fx, sweep critical-path %.2fx@%d workers, parallel speedup %.2fx, elide shrink dedup %.2fx/ferret %.2fx, decode loop %.4f allocs/event)\n",
			*jsonPath, rb.Speedup, sweep.Speedup, sweep.CriticalPathSpeedup, sweep.Workers, parallel.BestSpeedup, elided.DedupShrink, elided.FerretShrink, rb.DecodeLoop.AllocsPerEvent)
	}
	if *table == "sweep" {
		fmt.Println("=== §7 coverage sweep: naive vs prefix-sharing ===")
		fmt.Print(sweep.Render())
		return
	}
	if *table == "parallel" {
		fmt.Println("=== depa parallel detection: critical-path scaling ===")
		fmt.Print(parallel.Render())
		return
	}
	if *csv {
		if *table == "7" || *table == "both" {
			fmt.Print(fig7.RenderCSV())
		}
		if *table == "8" || *table == "both" {
			fmt.Print(fig8.RenderCSV())
		}
		return
	}
	if *table == "7" || *table == "both" {
		fmt.Println("=== Figure 7 ===")
		fmt.Print(fig7.Render(tables.PaperFigure7))
		ps, sp := fig7.Headline(true)
		fmt.Printf("headline geomeans (excluding ferret, as the paper does): Peer-Set %.2f (paper %.2f), SP+ %.2f (paper %.2f)\n\n",
			ps, tables.PaperHeadline7[0], sp, tables.PaperHeadline7[1])
	}
	if *table == "8" || *table == "both" {
		fmt.Println("=== Figure 8 ===")
		fmt.Print(fig8.Render(tables.PaperFigure8))
		ps, sp := fig8.Headline(true)
		fmt.Printf("headline geomeans (excluding ferret, as the paper does): Peer-Set %.2f (paper %.2f), SP+ %.2f (paper %.2f)\n",
			ps, tables.PaperHeadline8[0], sp, tables.PaperHeadline8[1])
	}
}
