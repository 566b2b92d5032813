// Package analyze is the one trace-analysis pipeline of the
// record-once/analyze-many workflow: rader -replay and raderd's /analyze
// both hand a recorded CILKTRACE stream to Trace, which builds the
// requested detectors, optionally runs the static elision pre-pass,
// replays the stream once through the pooled trace.ReplayAll engine,
// fixes the verdict up after elision, and builds the report document.
// Because both surfaces share it, a local verdict and a daemon verdict
// for the same trace are the same bytes by construction.
package analyze

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/elide"
	"repro/internal/obs"
	"repro/internal/rader"
	"repro/internal/report"
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
	// Events is the number of events in the stream.
	Events int64
	// Detectors are the detectors that consumed the stream, in document
	// order; empty for a validate-only pass.
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
	dets, err := detectors(opts.Detector, tr)
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
	for _, d := range dets {
		detectorSpan(tr, d)
	}
	res.Events = n

	if opts.Detector == rader.All {
		m := report.FromDetectors("", n, dets)
		if res.Plan != nil {
			res.Plan.FixupMulti(m)
		}
		res.Doc, res.Clean = m, m.Clean
		return res, nil
	}
	var rep *report.Report
	if len(dets) == 1 {
		rep = report.FromDetector(string(opts.Detector), "", n, dets[0])
	} else {
		rep = report.FromCore(string(opts.Detector), "", n, nil)
	}
	if res.Plan != nil {
		res.Plan.FixupReport(rep)
	}
	res.Doc, res.Clean = rep, rep.Clean
	return res, nil
}

// detectors builds fresh detectors for name: the paper's three for
// rader.All, none for the validate-only baselines, one otherwise. A depa
// detector emits its per-shard finalize spans into tr.
func detectors(name rader.DetectorName, tr *obs.Trace) ([]core.Detector, error) {
	if name == rader.All {
		return rader.NewAllDetectors(), nil
	}
	d, _, err := rader.NewDetector(name)
	if err != nil || d == nil {
		return nil, err
	}
	if dd, ok := d.(*depa.Detector); ok {
		dd.Trace = tr
	}
	return []core.Detector{d}, nil
}

// detectorSpan emits one "detector:<name>" span carrying the detector's
// event counts and verdict, so a profile shows each detector's
// consumption next to the decode.
func detectorSpan(tr *obs.Trace, d core.Detector) {
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
