package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/elide"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/trace"
)

// The replay and elide workloads analyze recorded traces: set-up records
// every input once under steal-all, and each operation turns one trace
// into a verdict. replay decodes into the detectors directly; elide runs
// the static elision pass first and replays through its skip set. Both
// use one caller, and the interpreter does no work in either.

// traceInputs are the recorded inputs: the six apps at small scale
// (23-240 KB, inside a core's 2 MB L2) and four at bench scale (1-5 MB).
// knapsack and pbfs at bench scale are left out to keep ten rounds inside
// one run: one all-detector replay of either takes 0.27-4.4 s.
func traceInputs(scale string) []appAt {
	if scale == scaleTest {
		return appsAt(apps.Test, appNames...)
	}
	return append(appsAt(apps.Small, appNames...),
		appsAt(apps.Bench, "collision", "dedup", "ferret", "fib")...)
}

// replayPaths are the detector paths of a replay operation.
var replayPaths = []string{"all", string(rader.Depa)}

func replayKey(input, path string) string { return fmt.Sprintf("replay/%s/%s", input, path) }

// traceInput is one recorded program.
type traceInput struct {
	name   string
	build  func() func(*cilk.Ctx) // a fresh instance of the program
	data   []byte
	events int64
}

func appTrace(a appAt) (*traceInput, error) {
	t := &traceInput{name: a.String(), build: func() func(*cilk.Ctx) { return a.build().Prog }}
	return t, t.record()
}

// record records a fresh instance under steal-all.
func (t *traceInput) record() error {
	data, _, err := record(t.build())
	if err != nil {
		return fmt.Errorf("recording %s: %w", t.name, err)
	}
	t.data = data
	return nil
}

type replayInst struct {
	cfg    *config
	elide  bool
	traces []*traceInput
	rp     *trace.Replayer
	// Traced-phase accounting of the depa and elision operations.
	depaStats          depa.ParallelStats
	depaOps            int
	elided, elideTotal int64
}

func setupReplay(cfg *config) (instance, error) { return setupTraces(cfg, false) }
func setupElide(cfg *config) (instance, error)  { return setupTraces(cfg, true) }

// setupTraces records every input under steal-all.
func setupTraces(cfg *config, elideOn bool) (instance, error) {
	inst := &replayInst{cfg: cfg, elide: elideOn, rp: trace.NewReplayer()}
	for _, a := range traceInputs(cfg.scale) {
		t, err := appTrace(a)
		if err != nil {
			return nil, err
		}
		inst.traces = append(inst.traces, t)
	}
	return inst, nil
}

func (ri *replayInst) prepare() error { return countEvents(ri.rp, ri.traces) }

// countEvents decodes every trace once for its event count.
func countEvents(rp *trace.Replayer, traces []*traceInput) error {
	for _, t := range traces {
		n, err := rp.Replay(t.data)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", t.name, err)
		}
		t.events = n
	}
	return nil
}

func (ri *replayInst) clients() int    { return 1 }
func (ri *replayInst) proc() procStats { return self{} }
func (ri *replayInst) restart() error  { return nil }
func (ri *replayInst) close() error    { return nil }

func (ri *replayInst) round(r int) []op {
	var ops []op
	for _, t := range ri.traces {
		if ri.elide {
			ops = append(ops, ri.elideOp(t))
			continue
		}
		for _, path := range replayPaths {
			ops = append(ops, ri.replayOp(t, path))
		}
	}
	g := rng(ri.cfg.seed, r, "replay")
	g.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (ri *replayInst) replayOp(t *traceInput, path string) op {
	return op{
		cell: t.name + "/" + path, key: replayKey(t.name, path), events: t.events,
		run: func(s *opSpans, _ int) ([]byte, string, error) {
			if path == "all" {
				doc, err := replayAll(s, ri.rp, t.data)
				return doc, "", err
			}
			d := depa.New()
			doc, err := replayOne(s, ri.rp, t.data, string(rader.Depa), d)
			if err == nil && s != nil {
				ps := d.ParallelStats()
				ri.depaStats.FastPathHits += ps.FastPathHits
				ri.depaStats.Accesses += ps.Accesses
				ri.depaStats.ShardMerges += ps.ShardMerges
				ri.depaOps++
			}
			return doc, "", err
		},
	}
}

// The elided verdict must equal the full replay's byte for byte, so it
// is checked against the replay path's known answer.
func (ri *replayInst) elideOp(t *traceInput) op {
	return op{
		cell: t.name + "/elide", key: replayKey(t.name, "all"), events: t.events,
		run: func(s *opSpans, _ int) ([]byte, string, error) {
			doc, aud, err := replayElided(s, ri.rp, t.data)
			if err == nil && s != nil {
				ri.elided += aud.ElidedEvents
				ri.elideTotal += aud.OriginalEvents
			}
			return doc, "", err
		},
	}
}

func allHooks(dets []core.Detector) []cilk.Hooks {
	hooks := make([]cilk.Hooks, len(dets))
	for i, d := range dets {
		hooks[i] = d
	}
	return hooks
}

// replayAll is one all-detector replay operation, as raderd runs it.
func replayAll(s *opSpans, rp *trace.Replayer, data []byte) ([]byte, error) {
	end := s.begin("trace.replay")
	dets := rader.NewAllDetectors()
	n, err := rp.Replay(data, allHooks(dets)...)
	end()
	if err != nil {
		return nil, err
	}
	end = s.begin("report.build")
	m := report.FromDetectors("", n, dets)
	end()
	end = s.begin("report.marshal")
	doc, err := m.Marshal()
	end()
	return doc, err
}

// replayOne replays into a single detector.
func replayOne(s *opSpans, rp *trace.Replayer, data []byte, name string, d core.Detector) ([]byte, error) {
	end := s.begin("trace.replay")
	n, err := rp.Replay(data, d)
	end()
	if err != nil {
		return nil, err
	}
	end = s.begin("report.build")
	rep := report.FromDetector(name, "", n, d)
	end()
	end = s.begin("report.marshal")
	doc, err := rep.Marshal()
	end()
	return doc, err
}

// replayElided is one elided all-detector operation: analyze, replay
// through the skip set, fix the ordinals up, encode.
func replayElided(s *opSpans, rp *trace.Replayer, data []byte) ([]byte, *elide.Audit, error) {
	end := s.begin("elide.analyze")
	plan, err := elide.Analyze(data)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = s.begin("trace.replay_skip")
	dets := rader.NewAllDetectors()
	n, err := rp.ReplaySkip(data, plan.SkipSet(), allHooks(dets)...)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = s.begin("report.build")
	m := report.FromDetectors("", n, dets)
	end()
	end = s.begin("elide.fixup")
	plan.FixupMulti(m)
	end()
	end = s.begin("report.marshal")
	doc, err := m.Marshal()
	end()
	return doc, plan.Audit(), err
}

// calibrationReps is how many times a traced run repeats each
// calibration call; the median is used.
const calibrationReps = 3

// layers reads the elision and depa accounting of the traced phase and
// calibrates the trace module and, for replay, each detector on the
// workload's own traces. elide.net_ms sums, over the inputs, the median
// full all-detector operation minus the median elided one: positive when
// elision pays for itself on a one-shot verdict.
func (ri *replayInst) layers(t *tracedRun) (map[string]float64, error) {
	m := map[string]float64{}
	cal, err := calibrateTraces(ri.rp, ri.traces, calibrationReps, !ri.elide)
	if err != nil {
		return nil, err
	}
	cal.fill(m)
	fmt.Fprintf(ri.cfg.log, "decode allocations per replay: %s\n", strings.Join(cal.perReplay, ", "))
	if ri.elide {
		var full, elided float64
		byCell := map[string][]float64{}
		for _, o := range t.untraced.records {
			byCell[o.cell] = append(byCell[o.cell], float64(o.latency))
		}
		for _, in := range ri.traces {
			d, err := timeMedian(calibrationReps, func() error {
				_, err := replayAll(nil, ri.rp, in.data)
				return err
			})
			if err != nil {
				return nil, err
			}
			full += float64(d)
			elided += median(byCell[in.name+"/elide"])
		}
		var tracedEvents float64
		for _, o := range t.traced.records {
			tracedEvents += float64(o.events)
		}
		var fixups []float64
		for _, op := range t.spans.ops {
			if d, ok := op.incl["elide.fixup"]; ok {
				fixups = append(fixups, float64(d)/1e3)
			}
		}
		m["elide.analyze_ns_per_event"] = float64(t.spans.total("elide.analyze")) / tracedEvents
		m["elide.skip_replay_ns_per_event"] = float64(t.spans.total("trace.replay_skip")) / tracedEvents
		m["elide.elided_frac"] = float64(ri.elided) / math.Max(float64(ri.elideTotal), 1)
		m["elide.fixup_us"] = median(fixups)
		m["elide.net_ms"] = (full - elided) / 1e6
	} else {
		m["depa.fast_path_rate"] = float64(ri.depaStats.FastPathHits) / math.Max(float64(ri.depaStats.Accesses), 1)
		m["depa.shard_merges"] = float64(ri.depaStats.ShardMerges) / math.Max(float64(ri.depaOps), 1)
	}
	reportLayers(t, m)
	return m, nil
}

// traceCalibration holds the calibration sums over a set of traces.
type traceCalibration struct {
	events, bytes    float64
	decode, allocs   float64
	record, emptyRun float64
	detectors        map[string]float64 // replay time per detector path
	// perReplay lists each trace's decode allocations per replay, which
	// show whether allocations grow with a trace's length.
	perReplay []string
}

// calibrateTraces times, per trace, a decode-only replay, the recording
// and an empty-tool run of the same program (for encode cost), and, when
// detectors is set, one replay per detector, so each layer's cost is a
// difference between two calls.
func calibrateTraces(rp *trace.Replayer, traces []*traceInput, reps int, detectors bool) (*traceCalibration, error) {
	c := &traceCalibration{detectors: map[string]float64{}}
	for _, in := range traces {
		c.events += float64(in.events)
		c.bytes += float64(len(in.data))
		d, err := timeMedian(reps, func() error { _, err := rp.Replay(in.data); return err })
		if err != nil {
			return nil, err
		}
		c.decode += float64(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rp.Replay(in.data); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		c.allocs += float64(after.Mallocs - before.Mallocs)
		c.perReplay = append(c.perReplay, fmt.Sprintf("%s %d (%d events)", in.name, after.Mallocs-before.Mallocs, in.events))

		rec, empty, err := timeRecording(in.build, reps)
		if err != nil {
			return nil, err
		}
		c.record += rec
		c.emptyRun += empty
		if !detectors {
			continue
		}
		for _, name := range []rader.DetectorName{rader.PeerSet, rader.SPBags, rader.SPPlus, rader.Depa, rader.All} {
			d, err := timeMedian(reps, func() error {
				if name == rader.All {
					_, err := rp.Replay(in.data, allHooks(rader.NewAllDetectors())...)
					return err
				}
				_, hooks, err := rader.NewDetector(name)
				if err != nil {
					return err
				}
				_, err = rp.Replay(in.data, hooks)
				return err
			})
			if err != nil {
				return nil, err
			}
			c.detectors[string(name)] += float64(d)
		}
	}
	return c, nil
}

// timeRecording returns the median time to record a fresh instance under
// steal-all, and to run one under the empty tool with the same schedule,
// in nanoseconds. Instances are built outside the timings.
func timeRecording(build func() func(*cilk.Ctx), reps int) (rec, empty float64, err error) {
	var recs, empties []float64
	for i := 0; i < reps; i++ {
		prog := build()
		start := time.Now()
		if _, _, err := record(prog); err != nil {
			return 0, 0, err
		}
		recs = append(recs, float64(time.Since(start)))
		prog = build()
		start = time.Now()
		cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: cilk.Empty{}})
		empties = append(empties, float64(time.Since(start)))
	}
	return median(recs), median(empties), nil
}

// fill writes the trace module's metrics and, when measured, the
// per-detector replay costs (each detector's replay minus decode-only).
func (c *traceCalibration) fill(m map[string]float64) {
	m["trace.decode_ns_per_event"] = c.decode / c.events
	m["trace.decode_allocs_per_event"] = c.allocs / c.events
	m["trace.bytes_per_event"] = c.bytes / c.events
	m["trace.encode_ns_per_event"] = (c.record - c.emptyRun) / c.events
	metricOf := map[string]string{
		string(rader.PeerSet): "peerset", string(rader.SPBags): "spbags",
		string(rader.SPPlus): "spplus", string(rader.Depa): "depa", string(rader.All): "all",
	}
	for name, d := range c.detectors {
		m[metricOf[name]+".replay_ns_per_event"] = (d - c.decode) / c.events
	}
}
