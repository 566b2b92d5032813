// Command bench is the repository benchmark. It runs five seeded,
// closed-loop workloads against the race-detection pipeline, checks every
// verdict against a known answer, and prints each end-to-end metric by
// name and unit. A traced run (-trace 1) replays the same operation
// sequence with spans around every layer call and prints per-layer
// metrics instead.
//
// Run it from the repository root through bench/run.sh, which builds this
// command and cmd/raderd into .bench_build/:
//
//	bash bench/run.sh --workload live --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -all -seed 1 -repeat 10 -out runs.json
//	bash bench/run.sh pairs -base ../parent -change . -out cmp/
//	bash bench/run.sh compare cmp/base.json cmp/change.json
//	bash bench/run.sh spread runs.json
//	bash bench/run.sh -regen-expected -scale test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// Exit codes: 0 when a result was printed (even one with failed
// operations: correct=false says so), 1 when compare finds a regression,
// 2 for usage, set-up or internal errors, with no result printed.
const (
	exitOK         = 0
	exitRegression = 1
	exitError      = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "pairs":
			return runPairs(args[1:], stdout, stderr)
		case "spread":
			return runSpread(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+workloadNames())
		seed     = fs.Int64("seed", 1, "sets the operation order and the serve workload's request sequence")
		seconds  = fs.Float64("seconds", 20, "length of the measured load phase")
		traced   = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		scale    = fs.String("scale", "", `input sizes: "" (the benchmark's) or "test" (smoke tests)`)
		raderd   = fs.String("raderd", ".bench_build/raderd", "raderd binary the serve workload starts")
		traceOut = fs.String("trace-out", "", "Chrome trace JSON of a traced run (default .bench_build/<workload>.trace.json)")
		all      = fs.Bool("all", false, "run every workload, each in its own process")
		repeat   = fs.Int("repeat", 1, "with -all: runs per workload, with seeds seed, seed+1, ...")
		out      = fs.String("out", "", "with -all: write every run's result to this runs file")
		regen    = fs.Bool("regen-expected", false, "recompute the known answers, check the cross-path contracts, and write bench/expected.json")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return exitError
	}
	if *scale != "" && *scale != scaleTest {
		fmt.Fprintf(stderr, "bench: bad -scale %q (want \"\" or %q)\n", *scale, scaleTest)
		return exitError
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1")
		return exitError
	}
	if *regen {
		if err := regenExpected(*scale, "bench/expected.json", stdout); err != nil {
			fmt.Fprintln(stderr, "bench: regen-expected:", err)
			return exitError
		}
		return exitOK
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, traced: *traced == 1, scale: *scale,
		raderd: *raderd, traceOut: *traceOut, log: stdout,
	}
	if *all {
		if err := runAll(cfg, *repeat, *out, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return exitError
		}
		return exitOK
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: -workload must be one of %s\n", workloadNames())
		return exitError
	}
	ans, err := loadAnswers()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitError
	}
	cfg.workload, cfg.answers = w.name, ans
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return exitError
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitError
	}
	fmt.Fprintln(stdout, string(line))
	return exitOK
}

// host describes the machine a run measured, for the human report and
// the runs files.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func thisHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

func (h host) String() string {
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %s, %s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU)
}
