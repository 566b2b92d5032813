package elide

import (
	"sort"

	"repro/internal/rader"
	"repro/internal/report"
)

// run is a maximal run of consecutive elided ordinals in one detector
// ordinal space: start, start+1, ..., start+count-1 were all elided, and
// before elided ordinals precede start.
type run struct {
	start, count, before int64
}

// remapOrd translates a filtered-stream ordinal back to the original
// stream's ordinal: every elided event with an original ordinal at or
// below the translated position shifts it up by one. A run is consumed
// iff start-before <= o, and start-before strictly increases across
// runs, so a binary search finds the last consumed run. Non-positive
// ordinals (omitted provenance) pass through.
func remapOrd(runs []run, o int64) int64 {
	if o <= 0 {
		return o
	}
	k := sort.Search(len(runs), func(i int) bool { return runs[i].start-runs[i].before > o })
	if k == 0 {
		return o
	}
	return o + runs[k-1].before + runs[k-1].count
}

// runsFor picks the ordinal space a detector counts events in: SP+
// additionally consumes the steal/reduce/view events (space B); the
// other access-consuming detectors count only {FrameEnter, FrameReturn,
// Sync, Load, Store} (space A); Peer-Set never consumes accesses, so
// its ordinals cannot shift.
func (p *Plan) runsFor(detector string) []run {
	switch rader.DetectorName(detector) {
	case rader.SPPlus:
		return p.runsB
	case rader.SPBags, rader.Depa:
		return p.runsA
	default:
		return nil
	}
}

// FixupReport rewrites a filtered-trace verdict document in place so it
// is byte-identical to the full-trace document: the replayed-event
// count becomes the original stream's, race provenance ordinals are
// remapped into the original ordinal space, and the depa parallel stats
// are restored to their full-trace values (workers and shard merges are
// shard-count properties and never drift).
func (p *Plan) FixupReport(r *report.Report) {
	if r == nil {
		return
	}
	if r.Events != 0 {
		r.Events = p.aud.OriginalEvents
	}
	if runs := p.runsFor(r.Detector); len(runs) > 0 {
		for i := range r.Races {
			if pv := r.Races[i].Provenance; pv != nil {
				pv.FirstEvent = remapOrd(runs, pv.FirstEvent)
				pv.SecondEvent = remapOrd(runs, pv.SecondEvent)
			}
		}
	}
	if r.Parallel != nil {
		r.Parallel.FastPathHits = p.aud.FastPathHits
		r.Parallel.Accesses = p.aud.OriginalAccesses
		r.Parallel.FastPathRate = 0
		if r.Parallel.Accesses > 0 {
			r.Parallel.FastPathRate = float64(r.Parallel.FastPathHits) / float64(r.Parallel.Accesses)
		}
	}
}

// FixupMulti applies FixupReport to every sub-report of an
// all-detectors document.
func (p *Plan) FixupMulti(m *report.Multi) {
	if m == nil {
		return
	}
	if m.Events != 0 {
		m.Events = p.aud.OriginalEvents
	}
	for _, r := range m.Reports {
		p.FixupReport(r)
	}
}
