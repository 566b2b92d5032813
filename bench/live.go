package main

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/specgen"
)

// The live workload is the paper's Figure 7 traffic: one caller runs
// rader.Run on a fresh app instance under one of six configurations and
// encodes the verdict. Nearly all its time goes to the cilk interpreter,
// hook dispatch and the live Peer-Set / SP+ detectors; trace, elide,
// specgen and service do no work.

// liveConfig is one Figure 7 column (plus the two baselines).
type liveConfig struct {
	name string
	det  rader.DetectorName
	// spec builds the steal specification from the profile's K and the
	// round's pick from the Random pool; nil means the serial schedule.
	spec func(k, pick int) cilk.StealSpec
}

var liveConfigs = []liveConfig{
	{name: "none", det: rader.None},
	{name: "empty", det: rader.EmptyTool},
	{name: "peer-set", det: rader.PeerSet},
	{name: "sp+/no-steals", det: rader.SPPlus},
	{name: "sp+/updates", det: rader.SPPlus, spec: func(k, _ int) cilk.StealSpec {
		return sched.ByDepth{D: max(1, k/2)}
	}},
	{name: "sp+/reductions", det: rader.SPPlus, spec: func(k, pick int) cilk.StealSpec {
		return sched.Random{Seed: int64(pick + 1), K: k}
	}},
}

// reductionSpecs is the size of the fixed pool of seeded Random
// specifications the reductions column cycles through, one per round, so
// runs at any seed cover the same specifications; their known answers
// are all in expected.json.
const reductionSpecs = 8

// liveApps picks the apps and their scales: bench scale, except pbfs at
// small scale, whose bench-scale SP+ cells take about 2 s each and would
// dominate the run.
func liveApps(scale string) []appAt {
	if scale == scaleTest {
		return appsAt(apps.Test, appNames...)
	}
	return append(appsAt(apps.Bench, "collision", "dedup", "ferret", "fib", "knapsack"),
		appsAt(apps.Small, "pbfs")...)
}

func liveKey(a appAt, c liveConfig, pick int) string {
	key := fmt.Sprintf("live/%s/%s", a, c.name)
	if c.name == "sp+/reductions" {
		key += fmt.Sprintf("#%d", pick)
	}
	return key
}

type liveApp struct {
	appAt
	k      int   // the profile's largest sync block (Figure 7's K)
	events int64 // serial-stream events
}

type liveInst struct {
	cfg  *config
	apps []*liveApp
	// counts accumulates each configuration's detector accounting during
	// a traced phase.
	counts map[string]*countAcc
}

type countAcc struct{ lookups, bags, events uint64 }

// setupLive builds and profiles every app instance.
func setupLive(cfg *config) (instance, error) {
	inst := &liveInst{cfg: cfg, counts: map[string]*countAcc{}}
	for _, a := range liveApps(cfg.scale) {
		p := specgen.Measure(a.build().Prog)
		inst.apps = append(inst.apps, &liveApp{appAt: a, k: p.MaxSyncBlock})
	}
	return inst, nil
}

func (l *liveInst) prepare() error {
	for _, a := range l.apps {
		a.events = serialEvents(a.build().Prog)
	}
	return nil
}

func (l *liveInst) clients() int                         { return 1 }
func (l *liveInst) proc() procStats                      { return self{} }
func (l *liveInst) restart() error                       { return nil }
func (l *liveInst) close() error                         { return nil }
func (l *liveInst) cell(a *liveApp, c liveConfig) string { return a.String() + "/" + c.name }

func (l *liveInst) round(r int) []op {
	pick := r % reductionSpecs
	var ops []op
	for _, a := range l.apps {
		for _, c := range liveConfigs {
			ops = append(ops, l.op(a, c, pick, r == 1))
		}
	}
	g := rng(l.cfg.seed, r, "live")
	g.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// op runs one cell on a fresh instance. With verify set, the app's own
// serial recomputation checks the program's output afterwards; it costs
// as much as the run itself on dedup and ferret, so each run checks every
// cell once, in its first measured round, and the verdict digest on
// every operation.
func (l *liveInst) op(a *liveApp, c liveConfig, pick int, verify bool) op {
	var spec cilk.StealSpec
	if c.spec != nil {
		spec = c.spec(a.k, pick)
	}
	var ins *apps.Instance
	cell := l.cell(a, c)
	o := op{
		cell: cell, key: liveKey(a.appAt, c, pick), events: a.events,
		prep: func() { ins = a.build() },
		run: func(s *opSpans, _ int) ([]byte, string, error) {
			doc, out, err := liveVerdict(s, ins.Prog, c.det, spec)
			if err == nil && s != nil {
				acc := l.counts[c.name]
				if acc == nil {
					acc = &countAcc{}
					l.counts[c.name] = acc
				}
				acc.lookups += out.Counts.ShadowLookups
				acc.bags += out.Counts.BagOps
				acc.events += uint64(a.events)
			}
			return doc, "", err
		},
	}
	if verify {
		o.verify = func() error { return ins.Verify() }
	}
	return o
}

// liveVerdict is one live operation: run the program under the detector
// and encode the verdict as rader -json does.
func liveVerdict(s *opSpans, prog func(*cilk.Ctx), det rader.DetectorName, spec cilk.StealSpec) ([]byte, *rader.Outcome, error) {
	end := s.begin("rader.run")
	out, err := rader.Run(prog, rader.Config{Detector: det, Spec: spec})
	end()
	if err != nil {
		return nil, nil, err
	}
	end = s.begin("report.build")
	rep := report.FromOutcome(out, sched.Format(spec))
	end()
	end = s.begin("report.marshal")
	doc, err := rep.Marshal()
	end()
	return doc, out, err
}

// layers derives the interpreter, dispatch and detector costs from the
// traced phase's rader.run spans: per app and configuration the median
// run time, then cost differences between configurations. It prints the
// Figure 7 and 8 rows (overhead over no instrumentation, and over the
// empty tool) that the geomeans summarize.
func (l *liveInst) layers(t *tracedRun) (map[string]float64, error) {
	runs := t.spans.cellIncl("rader.run")
	med := func(a *liveApp, c string) float64 { return median(runs[a.String()+"/"+c]) }
	m := map[string]float64{}
	var events, none, empty, peer, spp float64
	var f7ps, f7sp, f8ps, f8sp []float64
	w := l.cfg.log
	fmt.Fprintf(w, "%-16s %-9s %9s %9s %9s %9s\n", "app", "overhead", "peer-set", "no-steals", "updates", "reductions")
	for _, a := range l.apps {
		ev := float64(a.events)
		n, e, p := med(a, "none"), med(a, "empty"), med(a, "peer-set")
		events += ev
		none += n
		empty += e
		peer += p
		f7ps = append(f7ps, p/n)
		f8ps = append(f8ps, p/e)
		row7, row8 := fmt.Sprintf("%9.2f", p/n), fmt.Sprintf("%9.2f", p/e)
		for _, c := range []string{"sp+/no-steals", "sp+/updates", "sp+/reductions"} {
			d := med(a, c)
			spp += d / 3
			f7sp = append(f7sp, d/n)
			f8sp = append(f8sp, d/e)
			row7 += fmt.Sprintf(" %9.2f", d/n)
			row8 += fmt.Sprintf(" %9.2f", d/e)
		}
		fmt.Fprintf(w, "%-16s %-9s %s\n%-16s %-9s %s\n", a, "fig7", row7, "", "fig8", row8)
	}
	m["cilk.interpret_ns_per_event"] = none / events
	m["cilk.dispatch_ns_per_event"] = (empty - none) / events
	m["peerset.live_ns_per_event"] = (peer - empty) / events
	m["spplus.live_ns_per_event"] = (spp - empty) / events
	m["fig7.peerset_geomean"] = geomean(f7ps)
	m["fig7.spplus_geomean"] = geomean(f7sp)
	m["fig8.peerset_geomean"] = geomean(f8ps)
	m["fig8.spplus_geomean"] = geomean(f8sp)

	// Data-structure operations per event, over the traced operations.
	perEvent := func(configs ...string) (lookups, bags float64) {
		var sum countAcc
		for _, c := range configs {
			if acc := l.counts[c]; acc != nil {
				sum.lookups += acc.lookups
				sum.bags += acc.bags
				sum.events += acc.events
			}
		}
		evs := math.Max(float64(sum.events), 1)
		return float64(sum.lookups) / evs, float64(sum.bags) / evs
	}
	m["peerset.shadow_lookups_per_event"], m["peerset.bag_ops_per_event"] = perEvent("peer-set")
	m["spplus.shadow_lookups_per_event"], m["spplus.bag_ops_per_event"] =
		perEvent("sp+/no-steals", "sp+/updates", "sp+/reductions")
	reportLayers(t, m)
	return m, nil
}

// reportLayers fills the report module's metrics from the traced
// report.marshal spans: median encode time and mean document size.
func reportLayers(t *tracedRun, m map[string]float64) {
	var enc []float64
	for _, op := range t.spans.ops {
		if d, ok := op.incl["report.marshal"]; ok {
			enc = append(enc, float64(d)/1e3)
		}
	}
	m["report.encode_us"] = median(enc)
	m["report.bytes"] = t.traced.meanDocBytes()
}
