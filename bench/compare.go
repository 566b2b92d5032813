package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// minPairs is the fewest alternating pairs a comparison may rest on.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares a change's runs with its parent's, workload by
// workload, under the rules of the choosing-metrics guide (§6-8): at
// least ten alternating pairs; per side the median and quartiles; a gain
// only when the change wins nine pairs in ten and the medians differ by
// more than the parent's quartile spread; a regression when the change's
// median is worse than the parent's by more than the metric's bound; and
// "unresolved" where the parent's own spread exceeds the bound, unless
// every change run beats every parent run.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] base.json change.json")
		return exitError
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return exitError
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "bench compare:", *specPath+":", err)
		return exitError
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return exitError
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return exitError
	}
	if compare(stdout, spec, base, change) {
		return exitRegression
	}
	return exitOK
}

// comparison is one metric's verdict on one workload.
type comparison struct {
	bq1, bmed, bq3, cq1, cmed, cq3 float64
	wins, pairs                    int
	worse, spread                  float64
	verdict                        string
}

// compare prints one block per workload, its metrics' comparisons, and
// a summary row, and reports whether any workload regressed.
func compare(w io.Writer, spec benchSpec, base, change *runsFile) (regressed bool) {
	bw, cw := base.byWorkload(), change.byWorkload()
	var summary []string
	for _, wl := range workloads {
		b, c := bw[wl.name], cw[wl.name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		pairs := min(len(b), len(c))
		baseFirst := 0
		for i := 0; i < pairs; i++ {
			if b[i].Seq < c[i].Seq {
				baseFirst++
			}
		}
		note := ""
		if pairs < minPairs {
			note += fmt.Sprintf(", only %d pairs (want %d)", pairs, minPairs)
		}
		if d := 2*baseFirst - pairs; d > 1 || d < -1 {
			note += fmt.Sprintf(", not alternating (parent first in %d of %d)", baseFirst, pairs)
		}
		bf, cf := failures(b[:pairs]), failures(c[:pairs])
		fmt.Fprintf(w, "== %s: %d pairs, failed operations %d -> %d%s\n", wl.name, pairs, bf, cf, note)
		fmt.Fprintf(w, "  %-20s %30s %30s %7s %7s %7s  %s\n", "metric", "parent q1/median/q3", "change q1/median/q3",
			"wins", "worse", "spread", "verdict")
		var regs, gains, unres []string
		if cf > bf {
			regs = append(regs, "failed operations")
		}
		for _, m := range spec.EndToEnd {
			d := metricDef{name: m.Name, unit: m.Unit, better: m.Better}
			cmp := compareMetric(d, m.Bound, b[:pairs], c[:pairs])
			fmt.Fprintf(w, "  %-20s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %3d/%-3d %+7.3f %7.3f  %s\n",
				m.Name, cmp.bq1, cmp.bmed, cmp.bq3, cmp.cq1, cmp.cmed, cmp.cq3,
				cmp.wins, cmp.pairs, cmp.worse, cmp.spread, cmp.verdict)
			switch cmp.verdict {
			case "regression":
				regs = append(regs, m.Name)
			case "gain":
				gains = append(gains, m.Name)
			case "unresolved":
				unres = append(unres, m.Name)
			}
		}
		if len(regs) > 0 {
			regressed = true
		}
		summary = append(summary, fmt.Sprintf("%-7s regression: %s; gain: %s; unresolved: %s",
			wl.name, list(regs), list(gains), list(unres)))
	}
	fmt.Fprintln(w, "== summary, one row per workload")
	for _, s := range summary {
		fmt.Fprintln(w, s)
	}
	return regressed
}

func compareMetric(d metricDef, bound float64, b, c []runEntry) comparison {
	bv, cv := metricValues(b, d.name), metricValues(c, d.name)
	cmp := comparison{pairs: min(len(bv), len(cv))}
	cmp.bq1, cmp.bmed, cmp.bq3 = quartiles(bv)
	cmp.cq1, cmp.cmed, cmp.cq3 = quartiles(cv)
	better := func(x, y float64) bool {
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < cmp.pairs; i++ {
		if better(cv[i], bv[i]) {
			cmp.wins++ // ties count for neither side
		}
	}
	cmp.worse = worseBy(d, cmp.bmed, cmp.cmed)
	cmp.spread = (cmp.bq3 - cmp.bq1) / math.Abs(cmp.bmed)
	allBetter := len(cv) > 0 && len(bv) > 0
	for _, x := range cv {
		for _, y := range bv {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case cmp.worse > bound:
		cmp.verdict = "regression"
	case 10*cmp.wins >= 9*cmp.pairs && math.Abs(cmp.cmed-cmp.bmed) > cmp.bq3-cmp.bq1:
		cmp.verdict = "gain"
	case cmp.spread > bound && !allBetter:
		cmp.verdict = "unresolved"
	default:
		cmp.verdict = "within bound"
	}
	return cmp
}

func failures(runs []runEntry) int {
	n := 0
	for _, r := range runs {
		n += r.Result.Failed
	}
	return n
}

func list(xs []string) string {
	if len(xs) == 0 {
		return "-"
	}
	return strings.Join(xs, ", ")
}
