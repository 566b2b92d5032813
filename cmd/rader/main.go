// Command rader runs a Cilk program under a race detector and steal
// specification — the command-line face of the paper's Rader prototype.
//
// Usage:
//
//	rader -prog pbfs -detector sp+ -spec all
//	rader -prog fig1 -detector sp+ -spec triple:1,2,3
//	rader -prog fig1 -coverage            # full §7 sweep
//	rader -prog fig1-early -detector peer-set
//
// With -remote <url> the analysis happens on a raderd daemon instead of
// in-process: a recorded trace (-replay) is uploaded to /analyze, a named
// program (-prog) is analyzed server-side, and -coverage submits an async
// sweep job and polls it. Verdicts print under the same internal/report
// JSON schema either way, so local and remote output for one trace are
// byte-for-byte identical.
//
//	rader -record t.trace -prog fig1 -spec all     # record locally
//	rader -remote http://localhost:8735 -replay t.trace -json
//
// With -live <program> the analysis happens during a genuinely parallel
// execution: the named bridged program (see -live list) runs on the
// work-stealing runtime with -live-workers workers while the depa
// detector watches on-the-fly. The verdict is byte-identical to a serial
// replay of the same program; the report's parallel section carries the
// worker count, shard merges and fast-path hit rate. The bridged programs
// are catalogue entries like any other, so -prog runs them serially under
// every detector.
//
//	rader -live dedup-kernel-racy -live-workers 8 -json
//	rader -prog dedup-kernel-racy -detector depa -json
//
// Programs: -prog names any program of the one catalogue rader, raderd
// and stealgen share (corpus.Lookup): the paper's figures fig1 (the §2
// linked-list program), fig1-early (get_value before sync), fig1-late
// (set_value after spawn), fig1-fixed (deep copy) and fig2 (§3's dag,
// reads at strands 1 and 9, or at the -reads strands in a local run);
// every internal/corpus entry by name (clean-reducer-sum,
// view-read-early-get, ...); the bridged programs (dedup-kernel,
// dedup-kernel-racy, ferret-kernel, ferret-kernel-racy, stress); and the
// six benchmarks (collision, dedup, ferret, fib, knapsack, pbfs) at -scale
// test|small|bench. A name means the same program locally and with
// -remote.
//
// Every verdict prints from its report document: under -json as the
// document's bytes, otherwise as text that reads the same locally and
// with -remote.
//
// Exit status: 0 when the run is clean, 1 when races were detected, 2 on
// usage errors, internal errors, or an incomplete sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/depa"
	"repro/internal/elide"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wsrt"
)

// Exit codes.
const (
	exitClean = 0
	exitRaces = 1
	exitError = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, returning the exit code so
// tests can drive the tool end to end without forking a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rader", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		progName = fs.String("prog", "fib", "program: fig1[-early|-late|-fixed], fig2, a corpus entry name, a bridged program (see -live list), or a benchmark (collision, dedup, ferret, fib, knapsack, pbfs)")
		detector = fs.String("detector", "sp+", fmt.Sprintf("detector, one of %v (all: single-pass Peer-Set+SP-bags+SP+)", rader.DetectorNames))
		specStr  = fs.String("spec", "none", "steal specification (none, all, all-eager, depth:D, single:A, pair:A,B, triple:I,J,K, random:SEED,K, labels:...)")
		scale    = fs.String("scale", "small", "benchmark scale: test, small, bench")
		reads    = fs.String("reads", "1,9", "fig2 only, local runs only: comma-separated strands that read the reducer")
		coverage = fs.Bool("coverage", false, "run the full §7 specification sweep with SP+ and Peer-Set")
		sweepW   = fs.Int("sweep-workers", 0, "worker lanes of the -coverage work-stealing scheduler (0 = one per CPU); the verdict is identical at any width")
		sweepN   = fs.Int("sweep-sample", 0, "cap the -coverage sweep at this many coverage-guided specifications (0 = the full family); sampled verdicts cover only the sampled schedules")
		timeout  = fs.Duration("timeout", 0, "abort the run or sweep after this long (0 = no limit)")
		verbose  = fs.Bool("v", false, "print run statistics")
		dot      = fs.Bool("dot", false, "emit the run's performance dag in Graphviz dot format and exit")
		jsonOut  = fs.Bool("json", false, "print the race report as JSON (for CI)")
		record   = fs.String("record", "", "record the run's event stream to this trace file")
		replay   = fs.String("replay", "", "skip execution; replay a recorded trace file into the detector")
		live     = fs.String("live", "", "run a bridged program live on the work-stealing runtime under the depa detector (name, or 'list')")
		liveN    = fs.Int("live-workers", 4, "worker count for -live")
		remote   = fs.String("remote", "", "raderd base URL; analyze on the daemon instead of in-process")
		profile  = fs.String("profile-out", "", "write a Chrome trace-event JSON profile of the run to this file (open in chrome://tracing or ui.perfetto.dev)")
		elideOn  = fs.Bool("elide", false, "with -replay: statically elide provably race-free accesses before detection (verdicts stay byte-identical)")
		elideAud = fs.String("elide-audit", "", "with -replay: write the per-class \"why elided\" JSON audit to this file (implies -elide)")
		elideOut = fs.String("elide-out", "", "with -replay: write the filtered trace stream to this file (implies -elide)")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	// fatal prints err under exactly one "rader:" prefix: errors from
	// the rader package already carry it.
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "rader:", strings.TrimPrefix(err.Error(), "rader: "))
		return exitError
	}
	eo := elideOpts{enabled: *elideOn || *elideAud != "" || *elideOut != "", auditPath: *elideAud, outPath: *elideOut}
	if eo.enabled {
		if *replay == "" {
			return fatal(fmt.Errorf("-elide analyzes a recorded trace; it requires -replay"))
		}
		if *coverage {
			return fatal(fmt.Errorf("-elide cannot be combined with -coverage"))
		}
	}
	if *remote != "" {
		// The daemon knows nothing of these; dropping them silently would
		// print a verdict the user did not ask for.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-record", *record != ""},
			{"-dot", *dot},
			{"-live", *live != ""},
			{"-reads", *reads != "1,9"},
			{"-elide-audit", eo.auditPath != ""},
			{"-elide-out", eo.outPath != ""},
		} {
			if f.set {
				return fatal(fmt.Errorf("%s is local-only; drop -remote to use it", f.name))
			}
		}
	}

	// With -profile-out the whole pipeline records spans; nil keeps every
	// instrumentation site on its zero-cost path. For remote runs the
	// deferred writer also merges the daemon's span tree (fetched by the
	// client after the work resolves) onto a second process lane.
	var tr *obs.Trace
	var remoteCl *remoteClient
	if *profile != "" {
		tr = obs.NewTrace()
		defer func() {
			var sdoc *obs.SpanDoc
			if remoteCl != nil {
				sdoc = remoteCl.serverDoc
			}
			if err := writeProfile(tr, sdoc, *profile); err != nil {
				fmt.Fprintln(stderr, "rader: writing profile:", err)
			} else if !*jsonOut {
				fmt.Fprintf(stderr, "profile written to %s\n", *profile)
			}
		}()
	}

	if *remote != "" {
		// The invocation is one distributed trace: its context rides every
		// request as a traceparent header, the daemon parents its spans
		// under it, and -profile-out shows both sides on one timeline.
		ctx := obs.NewSpanContext()
		tr.SetContext(ctx)
		cl := &remoteClient{base: strings.TrimRight(*remote, "/"), stdout: stdout, ctx: ctx, tr: tr}
		remoteCl = cl
		code, err := cl.run(remoteRequest{
			replayPath: *replay,
			prog:       *progName,
			scale:      *scale,
			detector:   *detector,
			spec:       *specStr,
			coverage:   *coverage,
			sweepW:     *sweepW,
			sweepN:     *sweepN,
			jsonOut:    *jsonOut,
			elide:      eo.enabled,
		})
		if err != nil {
			return fatal(err)
		}
		return code
	}

	if *replay != "" {
		det, err := rader.ParseDetector(*detector)
		if err != nil {
			return fatal(err)
		}
		code, err := replayTrace(stdout, *replay, det, *jsonOut, tr, eo)
		if err != nil {
			return fatal(err)
		}
		return code
	}

	if *live != "" {
		code, err := runLive(stdout, *live, *liveN, *jsonOut, tr)
		if err != nil {
			return fatal(err)
		}
		return code
	}

	p, _, err := corpus.Lookup(*progName, *scale)
	if err != nil {
		return fatal(err)
	}
	if *progName == "fig2" {
		at, err := parseReads(*reads)
		if err != nil {
			return fatal(err)
		}
		p = corpus.Fig2(at...)
	}
	ins := p.Build()
	if !*jsonOut {
		// JSON modes keep stdout to exactly one document so output is
		// machine-diffable against a remote verdict.
		desc := p.Desc
		if ins.InputDesc != "" {
			desc += ", input " + ins.InputDesc
		}
		fmt.Fprintf(stdout, "program: %s (%s)\n", *progName, desc)
	}

	if *coverage {
		// Sweep lanes run program instances concurrently, and the apps
		// carry mutable state, so every sweep run gets a fresh instance.
		code, err := runCoverage(stdout, p.Factory, rader.SweepOptions{
			Workers:     *sweepW,
			SampleSpecs: *sweepN,
			Timeout:     *timeout,
			Trace:       tr,
		}, *jsonOut)
		if err != nil {
			return fatal(err)
		}
		return code
	}

	det, err := rader.ParseDetector(*detector)
	if err != nil {
		return fatal(err)
	}
	spec, err := sched.Parse(*specStr)
	if err != nil {
		return fatal(err)
	}
	if *dot {
		rec := dag.NewRecorder()
		cilk.Run(ins.Prog, cilk.Config{Spec: spec, Hooks: rec})
		fmt.Fprint(stdout, rec.D.Dot(*progName))
		return exitClean
	}
	if *record != "" {
		digest, err := recordTrace(*record, ins.Prog, spec)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "trace recorded to %s (sha256 %s)\n", *record, digest)
		return exitClean
	}
	res, out, err := analyze.Run(ins.Prog, rader.Config{Detector: det, Spec: spec, Timeout: *timeout, Trace: tr})
	if err != nil {
		return fatal(err)
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "detector: %s   spec: %s   time: %v\n", det, sched.Format(spec), out.Duration)
	}
	if *verbose {
		r := out.Result
		fmt.Fprintf(stdout, "frames=%d spawns=%d syncs=%d steals=%d views=%d reduces=%d loads=%d stores=%d reducer-reads=%d updates=%d\n",
			r.Frames, r.Spawns, r.Syncs, len(r.Steals), r.Views, r.Reduces, r.Loads, r.Stores, r.Reads, r.Updates)
		// A bag detector mints a disjoint-set element only for an ID it
		// stores, so a run may mint none.
		if len(out.Detectors) > 0 {
			if _, ok := out.Detectors[0].(core.StatsProvider); ok {
				fmt.Fprintf(stdout, "disjoint-set: %d minted IDs, %d finds, %d unions (each amortized O(α))\n",
					out.Stats.Elems, out.Stats.Finds, out.Stats.Unions)
			}
		}
	}
	if !*jsonOut && ins.Verify != nil {
		if err := ins.Verify(); err != nil {
			fmt.Fprintf(stdout, "VERIFY FAILED: %v\n", err)
		} else {
			fmt.Fprintln(stdout, "verify: ok")
		}
	}
	if err := printDoc(stdout, res.Doc, *jsonOut); err != nil {
		return fatal(err)
	}
	if !*jsonOut && !res.Clean && len(out.Result.Steals) > 0 {
		fmt.Fprintf(stdout, "replay with: -spec '%s'\n", out.Replay())
	}
	return verdictExit(res.Clean, true)
}

func runCoverage(stdout io.Writer, factory func() func(*cilk.Ctx), opts rader.SweepOptions, jsonOut bool) (int, error) {
	if opts.Workers < 1 {
		opts.Workers = runtime.NumCPU()
	}
	cr := rader.Sweep(factory, opts)
	if err := printDoc(stdout, report.FromCoverage(cr), jsonOut); err != nil {
		return exitError, err
	}
	return verdictExit(cr.Clean(), cr.Complete()), nil
}

// printDoc prints a local verdict document: its JSON bytes under -json,
// otherwise its text (writeVerdict).
func printDoc(stdout io.Writer, doc interface{ Marshal() ([]byte, error) }, jsonOut bool) error {
	if !jsonOut {
		writeVerdict(stdout, doc)
		return nil
	}
	b, err := doc.Marshal()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

// verdictExit maps a verdict to the exit status: races first, then an
// incomplete sweep.
func verdictExit(clean, complete bool) int {
	switch {
	case !clean:
		return exitRaces
	case !complete:
		return exitError
	default:
		return exitClean
	}
}

// parseReads parses -reads, fig2's comma-separated reading strands.
func parseReads(reads string) ([]int, error) {
	var at []int
	for _, f := range strings.Split(reads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > progs.Fig2Strands {
			return nil, fmt.Errorf("bad fig2 read strand %q", f)
		}
		at = append(at, v)
	}
	return at, nil
}

func recordTrace(path string, prog func(*cilk.Ctx), spec cilk.StealSpec) (trace.Digest, error) {
	f, err := os.Create(path)
	if err != nil {
		return trace.Digest{}, err
	}
	tw := trace.NewWriter(f)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: tw})
	if err := tw.Close(); err != nil {
		f.Close()
		return trace.Digest{}, err
	}
	digest, err := tw.Digest()
	if err != nil {
		f.Close()
		return trace.Digest{}, err
	}
	return digest, f.Close()
}

// writeProfile renders collected spans as Chrome trace-event JSON. With a
// fetched server-side span tree the output is a two-process trace: the
// client's spans on PID 1, the daemon's on PID 2, time-shifted onto the
// client's clock by the difference of the two trace epochs and labelled
// with the traceparents that link them. Without one (local runs, or a
// daemon that recorded nothing) the single-process format is unchanged.
func writeProfile(tr *obs.Trace, sdoc *obs.SpanDoc, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if sdoc == nil {
		werr = tr.WriteChrome(f)
	} else {
		clientLabels := map[string]string{}
		if tp := tr.Context().Traceparent(); tp != "" {
			clientLabels["traceparent"] = tp
		}
		serverLabels := map[string]string{}
		if sdoc.Traceparent != "" {
			serverLabels["traceparent"] = sdoc.Traceparent
		}
		werr = obs.WriteChromeProcesses(f, []obs.Process{
			{PID: 1, Name: "rader (client)", Spans: tr.Spans(), Labels: clientLabels},
			{PID: 2, Name: "raderd (server)",
				Offset: time.Duration(sdoc.T0UnixNano - tr.T0().UnixNano()),
				Spans:  sdoc.Records(), Labels: serverLabels},
		})
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// elideOpts is the -elide flag family: run the static elision pre-pass
// over the replayed trace and optionally persist its artifacts.
type elideOpts struct {
	enabled   bool
	auditPath string // -elide-audit: "why elided" JSON artifact
	outPath   string // -elide-out: filtered trace stream
}

// replayTrace analyzes a recorded trace through the same pipeline raderd
// runs (internal/analyze) and prints the verdict. With -elide the
// detectors replay only the accesses the static pre-pass could not prove
// race-free, and the verdict stays byte-identical to a full replay.
func replayTrace(stdout io.Writer, path string, det rader.DetectorName, jsonOut bool, tr *obs.Trace, eo elideOpts) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return exitError, err
	}
	res, err := analyze.Trace(data, analyze.Options{Detector: det, Elide: eo.enabled, Trace: tr})
	if err != nil {
		return exitError, err
	}
	if res.Plan != nil {
		if err := eo.write(res.Plan, data); err != nil {
			return exitError, err
		}
	}
	if !jsonOut {
		printReplayHeader(stdout, path, det, eo, res)
	}
	if err := printDoc(stdout, res.Doc, jsonOut); err != nil {
		return exitError, err
	}
	return verdictExit(res.Clean, true), nil
}

// write persists the -elide-audit and -elide-out artifacts of plan.
func (eo elideOpts) write(plan *elide.Plan, data []byte) error {
	if eo.auditPath != "" {
		b, err := plan.Audit().Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(eo.auditPath, b, 0o644); err != nil {
			return err
		}
	}
	if eo.outPath != "" {
		filtered, _, err := plan.Filter(data)
		if err != nil {
			return err
		}
		return os.WriteFile(eo.outPath, filtered, 0o644)
	}
	return nil
}

// printReplayHeader prints a replay's header lines: the elision summary
// and its artifacts, then what was replayed under which detectors.
func printReplayHeader(stdout io.Writer, path string, det rader.DetectorName, eo elideOpts, res *analyze.Result) {
	if res.Plan != nil {
		aud := res.Plan.Audit()
		fmt.Fprintf(stdout, "elision: %d of %d events proven race-free and skipped (%.2fx shrink, %d bytes)\n",
			aud.ElidedEvents, aud.OriginalEvents, aud.Shrink, aud.ElidedBytes)
		if eo.auditPath != "" {
			fmt.Fprintf(stdout, "elision audit written to %s\n", eo.auditPath)
		}
		if eo.outPath != "" {
			fmt.Fprintf(stdout, "filtered trace written to %s\n", eo.outPath)
		}
	}
	if det == rader.All {
		fmt.Fprintf(stdout, "replayed %d events from %s in one pass under %d detectors\n",
			res.Events, path, len(res.Detectors))
		return
	}
	fmt.Fprintf(stdout, "replayed %d events from %s under %s\n", res.Events, path, det)
}

// runLive executes a bridged program live on the work-stealing runtime
// with the depa detector watching during execution — the on-the-fly half
// of the detector, as opposed to -replay's post-mortem analysis. The
// verdict document is the standard report schema with the parallel stats
// section filled in from the live run.
func runLive(stdout io.Writer, name string, workers int, jsonOut bool, tr *obs.Trace) (int, error) {
	if name == "list" {
		for _, n := range corpus.LiveNames() {
			p, _, _ := corpus.Lookup(n, "") // every live name resolves
			fmt.Fprintf(stdout, "%-18s %s\n", n, p.Desc)
		}
		return exitClean, nil
	}
	p, _, err := corpus.Lookup(name, "")
	if err != nil || p.Bridged == nil {
		return exitError, fmt.Errorf("-live runs a bridged program, not %q (have %v)", name, corpus.LiveNames())
	}
	if workers < 1 {
		return exitError, fmt.Errorf("-live-workers must be at least 1 (got %d)", workers)
	}
	live := depa.NewLive()
	live.Trace = tr
	live.Run(wsrt.New(workers), p.Bridged())
	doc := report.FromDetector(live.Name(), "", 0, live)
	if !jsonOut {
		fmt.Fprintf(stdout, "program: %s (%s)\n", name, p.Desc)
		fmt.Fprintf(stdout, "live: depa on %d worker(s)\n", workers)
	}
	if err := printDoc(stdout, doc, jsonOut); err != nil {
		return exitError, err
	}
	return verdictExit(doc.Clean, true), nil
}
