package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runsFile records benchmark runs: what -all, pairs and the committed
// baselines write, and what compare and spread read.
type runsFile struct {
	Host host       `json:"host"`
	Runs []runEntry `json:"runs"`
}

// runEntry is one run of one workload. Seq orders every run of a pairs
// session, so compare can check that the two sides alternated.
type runEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seq      int    `json:"seq"`
	Result   result `json:"result"`
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeRuns(path string, f *runsFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// byWorkload groups a file's runs by workload, each in Seq order.
func (f *runsFile) byWorkload() map[string][]runEntry {
	out := map[string][]runEntry{}
	for _, r := range f.Runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
	}
	return out
}

// execRun runs one benchmark process and parses the result on the last
// line of its standard output, echoing the rest to log.
func execRun(cmd *exec.Cmd, log io.Writer) (result, error) {
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Fprintln(log, text[:len(text)-len(last)])
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", strings.Join(cmd.Args, " "), err)
	}
	return res, nil
}

// runAll runs every workload repeat times, each run in its own process
// so that peak memory and CPU are measured per workload, and prints the
// medians.
func runAll(cfg *config, repeat int, out string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f := &runsFile{Host: thisHost()}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			seed := cfg.seed + int64(rep)
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-raderd", cfg.raderd, "-scale", cfg.scale}
			if cfg.traced {
				args = append(args, "-trace", "1")
			}
			res, err := execRun(exec.Command(exe, args...), stdout)
			if err != nil {
				return err
			}
			f.Runs = append(f.Runs, runEntry{Workload: w.name, Seed: seed, Seq: len(f.Runs), Result: res})
		}
	}
	printSpread(stdout, f)
	if out != "" {
		return writeRuns(out, f)
	}
	return nil
}

// runPairs measures two checkouts in alternating pairs, each side through
// its own bench/run.sh, every run at the same seed, so the two sides'
// spreads come from the runs and not from different inputs.
func runPairs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base    = fs.String("base", "", "root of the parent commit's checkout")
		change  = fs.String("change", "", "root of the change's checkout")
		pairs   = fs.Int("pairs", 10, "alternating pairs per workload")
		seed    = fs.Int64("seed", 1, "seed of every run")
		seconds = fs.Float64("seconds", 20, "-seconds of every run")
		only    = fs.String("workloads", "", "comma-separated workloads (default all)")
		outDir  = fs.String("out", ".bench_build/pairs", "directory for base.json and change.json")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *base == "" || *change == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "bench pairs: -base and -change are required")
		return exitError
	}
	names := strings.Split(*only, ",")
	if *only == "" {
		names = strings.Split(workloadNames(), ", ")
	}
	sides := [2]*runsFile{{Host: thisHost()}, {Host: thisHost()}}
	roots := [2]string{*base, *change}
	seq := 0
	for i := 0; i < *pairs; i++ {
		for _, w := range names {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				cmd := exec.Command("bash", "bench/run.sh", "--workload", w,
					"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
				cmd.Dir = roots[side]
				res, err := execRun(cmd, stdout)
				if err != nil {
					fmt.Fprintln(stderr, "bench pairs:", err)
					return exitError
				}
				sides[side].Runs = append(sides[side].Runs, runEntry{Workload: w, Seed: *seed, Seq: seq, Result: res})
				seq++
			}
		}
	}
	for i, name := range []string{"base.json", "change.json"} {
		if err := writeRuns(filepath.Join(*outDir, name), sides[i]); err != nil {
			fmt.Fprintln(stderr, "bench pairs:", err)
			return exitError
		}
	}
	return exitOK
}

// runSpread prints, per workload and end-to-end metric, the median and
// the quartile spread of each runs file, and how far each later file's
// median moved from the first's.
func runSpread(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: bench spread runs.json [more-runs.json ...]")
		return exitError
	}
	var files []*runsFile
	for _, p := range args {
		f, err := readRuns(p)
		if err != nil {
			fmt.Fprintln(stderr, "bench spread:", err)
			return exitError
		}
		files = append(files, f)
	}
	for i, f := range files {
		fmt.Fprintf(stdout, "== %s\n", args[i])
		printSpread(stdout, f)
	}
	if len(files) > 1 {
		first := files[0].byWorkload()
		for i, f := range files[1:] {
			fmt.Fprintf(stdout, "== median of %s relative to %s (positive = worse)\n", args[i+1], args[0])
			for _, w := range workloads {
				later := f.byWorkload()[w.name]
				if len(later) == 0 || len(first[w.name]) == 0 {
					continue
				}
				var cells []string
				for _, d := range endToEndDefs {
					m0 := median(metricValues(first[w.name], d.name))
					m1 := median(metricValues(later, d.name))
					cells = append(cells, fmt.Sprintf("%s %+.3f", d.name, worseBy(d, m0, m1)))
				}
				fmt.Fprintf(stdout, "%-7s %s\n", w.name, strings.Join(cells, "  "))
			}
		}
	}
	return exitOK
}

func printSpread(w io.Writer, f *runsFile) {
	fmt.Fprintf(w, "%-7s %-20s %4s %14s %14s %14s %8s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread")
	for _, wl := range workloads {
		runs := f.byWorkload()[wl.name]
		if len(runs) == 0 {
			continue
		}
		failed := 0
		for _, r := range runs {
			failed += r.Result.Failed
		}
		for _, d := range endToEndDefs {
			v := metricValues(runs, d.name)
			if len(v) == 0 {
				continue // traced runs report per-layer metrics only
			}
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(w, "%-7s %-20s %4d %14.6g %14.6g %14.6g %8.4f\n", wl.name, d.name, len(v), q1, med, q3, (q3-q1)/med)
		}
		fmt.Fprintf(w, "%-7s %-20s %4d failed operations in total\n", wl.name, "fail", failed)
	}
}

func metricValues(runs []runEntry, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// worseBy is how much worse now is than before, as a share of before
// (negative when better).
func worseBy(d metricDef, before, now float64) float64 {
	if before == 0 {
		return math.NaN()
	}
	if d.better == "higher" {
		return (before - now) / before
	}
	return (now - before) / before
}
