package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/specgen"
)

// The sweep workload runs §7 coverage sweeps (rader.Sweep at Workers =
// nproc) for one caller. Nearly all its time goes to specgen, the trie
// scheduler, SP+ snapshot/restore and mem copy-on-write, all of which the
// replay workload skips.

// sweepInput is one swept program.
type sweepInput struct {
	name    string
	factory func() func(*cilk.Ctx)
	sample  int // SampleSpecs (0 = the whole family)
	specs   int // specifications the sweep covers
	events  int64
}

// sweepInputs spans family sizes from a handful of specifications (the
// figures and the apps at test scale) to thousands (ReducerBench), with
// one sampled family and one long shared prefix (SweepStress).
func sweepInputs(scale string) []*sweepInput {
	fig1 := func(name string, o progs.Fig1Options) *sweepInput {
		return &sweepInput{name: name, factory: func() func(*cilk.Ctx) { return progs.Fig1(mem.NewAllocator(), o) }}
	}
	reducerBench := func(spawns, sample int) *sweepInput {
		name := fmt.Sprintf("reducerbench-%d", spawns)
		if sample > 0 {
			name += fmt.Sprintf("-sample%d", sample)
		}
		return &sweepInput{name: name, sample: sample,
			factory: func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), spawns) }}
	}
	sweepStress := func(spawns, preamble, body int) *sweepInput {
		return &sweepInput{name: fmt.Sprintf("sweepstress-%d-%d-%d", spawns, preamble, body),
			factory: func() func(*cilk.Ctx) { return progs.SweepStress(mem.NewAllocator(), spawns, preamble, body) }}
	}
	appInputs := func(names ...string) []*sweepInput {
		var out []*sweepInput
		for _, a := range appsAt(apps.Test, names...) {
			out = append(out, &sweepInput{name: a.String(), factory: func() func(*cilk.Ctx) { return a.build().Prog }})
		}
		return out
	}
	in := []*sweepInput{
		fig1("fig1", progs.Fig1Options{}),
		fig1("fig1-fixed", progs.Fig1Options{DeepCopy: true}),
		{name: "fig2", factory: func() func(*cilk.Ctx) { return progs.Fig2Reads(1, 9) }},
	}
	if scale == scaleTest {
		in = append(in, reducerBench(8, 0), reducerBench(10, 20), sweepStress(3, 16, 4))
		return append(in, appInputs("collision", "fib")...)
	}
	in = append(in, reducerBench(20, 0), reducerBench(30, 0), reducerBench(40, 2000), sweepStress(7, 2048, 64))
	return append(in, appInputs(appNames...)...)
}

func sweepKey(in *sweepInput) string { return "sweep/" + in.name }

// sweepVerdict is one sweep operation: the sweep and its report, as rader
// -coverage -json produces it.
func sweepVerdict(s *opSpans, in *sweepInput, workers int) ([]byte, *rader.CoverageResult, error) {
	end := s.begin("rader.sweep")
	cr := rader.Sweep(in.factory, rader.SweepOptions{Workers: workers, SampleSpecs: in.sample})
	end()
	if !cr.Complete() {
		return nil, nil, fmt.Errorf("sweep of %s incomplete: %v", in.name, cr.Failures)
	}
	end = s.begin("report.build")
	doc := report.FromCoverage(cr)
	end()
	end = s.begin("report.marshal")
	raw, err := doc.Marshal()
	end()
	return raw, cr, err
}

type sweepInst struct {
	cfg    *config
	inputs []*sweepInput
	// Traced-phase accounting from each sweep's stats.
	acc sweepAcc
}

type sweepAcc struct {
	ops, specs                                int
	units, hits, skipped, pages, steals, hand int64
	busy, maxLane, wall                       float64
	workers                                   int
}

// setupSweep profiles every input and sizes its specification family.
func setupSweep(cfg *config) (instance, error) {
	inst := &sweepInst{cfg: cfg, inputs: sweepInputs(cfg.scale)}
	for _, in := range inst.inputs {
		fam := specgen.NewFamily(specgen.Measure(in.factory()))
		in.specs = fam.Len()
		if in.sample > 0 && in.sample < in.specs {
			in.specs = in.sample
		}
	}
	return inst, nil
}

func (si *sweepInst) prepare() error {
	for _, in := range si.inputs {
		in.events = int64(in.specs) * serialEvents(in.factory())
	}
	return nil
}

func (si *sweepInst) clients() int    { return 1 }
func (si *sweepInst) proc() procStats { return self{} }
func (si *sweepInst) restart() error  { return nil }
func (si *sweepInst) close() error    { return nil }

func (si *sweepInst) round(r int) []op {
	ops := make([]op, len(si.inputs))
	for i, in := range si.inputs {
		ops[i] = op{
			cell: in.name, key: sweepKey(in), events: in.events,
			run: func(s *opSpans, _ int) ([]byte, string, error) {
				start := time.Now()
				doc, cr, err := sweepVerdict(s, in, runtime.NumCPU())
				if err == nil && cr.SpecsRun != in.specs {
					err = fmt.Errorf("sweep of %s ran %d specifications, want %d", in.name, cr.SpecsRun, in.specs)
				}
				if err == nil && s != nil {
					si.acc.add(cr, in.specs, time.Since(start))
				}
				return doc, "", err
			},
		}
	}
	g := rng(si.cfg.seed, r, "sweep")
	g.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (a *sweepAcc) add(cr *rader.CoverageResult, specs int, wall time.Duration) {
	st := cr.Stats
	a.ops++
	a.specs += specs
	a.units += st.SnapshotHits + st.SnapshotMisses
	a.hits += st.SnapshotHits
	a.skipped += st.EventsSkipped
	a.pages += st.PagesCopied
	a.steals += st.Steals
	a.hand += st.Handoffs
	a.workers = st.Workers
	var lane float64
	for _, b := range st.WorkerBusy {
		a.busy += float64(b)
		lane = math.Max(lane, float64(b))
	}
	a.maxLane += lane
	a.wall += float64(wall)
}

func (si *sweepInst) layers(t *tracedRun) (map[string]float64, error) {
	a := si.acc
	ops := math.Max(float64(a.ops), 1)
	m := map[string]float64{
		"rader.sweep.units":               float64(a.units) / ops,
		"rader.sweep.snapshot_hit_ratio":  float64(a.hits) / math.Max(float64(a.units), 1),
		"rader.sweep.events_skipped":      float64(a.skipped) / ops,
		"rader.sweep.pages_copied":        float64(a.pages) / ops,
		"rader.sweep.steals":              float64(a.steals) / ops,
		"rader.sweep.handoffs":            float64(a.hand) / ops,
		"rader.sweep.lane_busy_frac":      a.busy / math.Max(float64(a.workers)*a.wall, 1),
		"rader.sweep.critical_path_ratio": a.busy / math.Max(a.maxLane, 1),
		"rader.sweep.specs_per_s":         float64(a.specs) / t.spans.total("rader.sweep").Seconds(),
	}
	// Calibration per input: the sweep's profile and trie phases, and the
	// interpreter with no instrumentation versus the empty tool.
	var profile, trie, none, empty, events float64
	for _, in := range si.inputs {
		var probes []specgen.ProbeRecord
		var fam *specgen.Family
		d, err := timeMedian(calibrationReps, func() error {
			var p specgen.Profile
			p, probes = specgen.MeasureProbes(in.factory())
			fam = specgen.NewFamily(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		profile += float64(d)
		sel := specgen.SampleFamily(fam, probes, in.sample, 0)
		d, _ = timeMedian(calibrationReps, func() error {
			specgen.BuildTrieIndexed(len(sel), func(i int) cilk.StealSpec { return fam.At(sel[i]) }, probes)
			return nil
		})
		trie += float64(d)
		n, e := timeInterpreter(in.factory, calibrationReps)
		none += n
		empty += e
		events += float64(in.events) / float64(in.specs)
	}
	m["specgen.profile_ms"] = profile / 1e6
	m["specgen.trie_ms"] = trie / 1e6
	m["cilk.interpret_ns_per_event"] = none / events
	m["cilk.dispatch_ns_per_event"] = (empty - none) / events
	reportLayers(t, m)
	return m, nil
}

// timeInterpreter returns the median serial run time of fresh instances
// with no instrumentation and with the empty tool, in nanoseconds.
func timeInterpreter(factory func() func(*cilk.Ctx), reps int) (none, empty float64) {
	var ns, es []float64
	for i := 0; i < reps; i++ {
		prog := factory()
		start := time.Now()
		cilk.Run(prog, cilk.Config{})
		ns = append(ns, float64(time.Since(start)))
		prog = factory()
		start = time.Now()
		cilk.Run(prog, cilk.Config{Hooks: cilk.Empty{}})
		es = append(es, float64(time.Since(start)))
	}
	return median(ns), median(es)
}
