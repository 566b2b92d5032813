// Package analyze is the one analysis pipeline behind rader and raderd.
// A recorded CILKTRACE stream goes to Trace (rader -replay, raderd's
// /analyze), which builds the requested detectors, optionally runs the
// static elision pre-pass, replays the stream once through the pooled
// trace.ReplayAll engine, fixes the verdict up after elision, and builds
// the report document. A named program goes to Run (rader -prog,
// raderd's ?prog=), which runs it once under rader.Run and builds the
// document the same way. Because both surfaces share these paths, a
// local verdict and a daemon verdict for the same input are the same
// bytes by construction.
package analyze

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/elide"
	"repro/internal/obs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options selects one analysis of a recorded trace.
type Options struct {
	// Detector is any name rader.ParseDetector accepts. rader.All fans one
	// decode out to rader.AllDetectors; rader.None and rader.EmptyTool run
	// a validate-only pass whose verdict is an empty clean report.
	Detector rader.DetectorName
	// Elide runs the static elision pre-pass first. The verdict document
	// is byte-identical either way; only the replay work shrinks.
	Elide bool
	// Trace, when set, receives an "elide" span, a "replay" span carrying
	// the decode accounting, one "detector:<name>" span per detector, and
	// depa's per-shard spans. Nil records nothing.
	Trace *obs.Trace
}

// Result is one successful analysis.
type Result struct {
	// Doc is the verdict document: *report.Multi for rader.All,
	// *report.Report otherwise.
	Doc interface{ Marshal() ([]byte, error) }
	// Clean is the verdict: no detector reported a race.
	Clean bool
	// Events is the number of events in the stream; zero for a run.
	Events int64
	// Detectors are the detectors that consumed the stream, in document
	// order; empty for a validate-only pass or an uninstrumented run.
	Detectors []core.Detector
	// Plan is the elision plan (nil unless Options.Elide), for callers
	// that persist its audit or filtered stream. ElidedEvents and
	// ElidedBytes are the access events it kept away from the detectors
	// and the encoded bytes they occupied.
	Plan         *elide.Plan
	ElidedEvents int64
	ElidedBytes  int64
}

// Trace analyzes one in-memory encoded stream. A malformed, truncated or
// corrupt stream fails with the trace package's *streamerr.Error kinds,
// whatever the detector.
func Trace(data []byte, opts Options) (*Result, error) {
	tr := opts.Trace
	dets, err := rader.NewDetectors(opts.Detector, tr)
	if err != nil {
		return nil, err
	}
	res := &Result{Detectors: dets}
	var skip *trace.SkipSet
	if opts.Elide {
		span := tr.Start("elide")
		plan, err := elide.Analyze(data)
		if err != nil {
			span.Arg("error", err.Error()).End()
			return nil, err
		}
		aud := plan.Audit()
		span.Arg("originalEvents", aud.OriginalEvents).Arg("elidedEvents", aud.ElidedEvents).
			Arg("elidedBytes", aud.ElidedBytes).End()
		res.Plan, res.ElidedEvents, res.ElidedBytes = plan, aud.ElidedEvents, aud.ElidedBytes
		skip = plan.SkipSet()
	}

	hooks := make([]cilk.Hooks, len(dets))
	for i, d := range dets {
		hooks[i] = d
	}
	var stats trace.ReplayStats
	span := tr.Start("replay")
	n, err := trace.ReplayAll(data, skip, &stats, hooks...)
	if err != nil {
		span.Arg("error", err.Error()).End()
		return nil, err
	}
	span.Arg("events", stats.Events).Arg("bytes", stats.Bytes).
		Arg("frames", stats.Frames).Arg("labels", stats.InternedLabels).End()
	res.Events = n
	res.verdict(opts.Detector, "", tr)
	return res, nil
}

// Run executes prog once under cfg through rader.Run and builds the
// verdict exactly as Trace does for a replayed stream, labelled with the
// canonical form of cfg.Spec. The Outcome carries the run's schedule,
// statistics and replay specification.
func Run(prog func(*cilk.Ctx), cfg rader.Config) (*Result, *rader.Outcome, error) {
	out, err := rader.Run(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Detectors: out.Detectors}
	res.verdict(cfg.Detector, sched.Format(cfg.Spec), cfg.Trace)
	return res, out, nil
}

// verdict emits one "detector:<name>" span per detector, carrying its
// event counts and verdict, then builds the document: a Multi for
// rader.All, a Report otherwise (empty and clean when no detector
// watched), fixed up after elision when res.Plan is set.
func (res *Result) verdict(name rader.DetectorName, spec string, tr *obs.Trace) {
	for _, d := range res.Detectors {
		span := tr.Start("detector:" + d.Name())
		if ec, ok := d.(core.EventCountsProvider); ok {
			for _, a := range ec.EventCounts().Args() {
				span.Arg(a.Key, a.Value)
			}
		}
		if rp := d.Report(); rp != nil {
			span.Arg("races", rp.Distinct())
		}
		span.End()
	}
	if name == rader.All {
		m := report.FromDetectors(spec, res.Events, res.Detectors)
		if res.Plan != nil {
			res.Plan.FixupMulti(m)
		}
		res.Doc, res.Clean = m, m.Clean
		return
	}
	var rep *report.Report
	if len(res.Detectors) == 1 {
		rep = report.FromDetector(string(name), spec, res.Events, res.Detectors[0])
	} else {
		rep = report.FromCore(string(name), spec, res.Events, nil)
	}
	if res.Plan != nil {
		res.Plan.FixupReport(rep)
	}
	res.Doc, res.Clean = rep, rep.Clean
}
