package trace

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/spplus"
)

// TestDetectorProvenanceAndCounts replays the (racy) Figure 1 program
// under every detector and checks that each reported race carries a
// Provenance — a relation plus detector-relative event ordinals — and
// that each detector's event accounting covers the stream it consumed.
func TestDetectorProvenanceAndCounts(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	dets := []core.Detector{peerset.New(), spplus.NewSPBags(), spplus.New()}
	hooks := make([]cilk.Hooks, len(dets))
	for i, d := range dets {
		hooks[i] = d.(cilk.Hooks)
	}
	if _, err := ReplayAll(data, nil, nil, hooks...); err != nil {
		t.Fatal(err)
	}

	raced := 0
	for _, d := range dets {
		rep := d.Report()
		for _, r := range rep.Races() {
			raced++
			p := r.Prov
			if p.Relation == "" {
				t.Errorf("%s: race %v has no provenance relation", d.Name(), r)
			}
			if p.SecondEvent <= 0 {
				t.Errorf("%s: race %v has second-event ordinal %d", d.Name(), r, p.SecondEvent)
			}
			if p.FirstEvent < 0 || p.FirstEvent > p.SecondEvent {
				t.Errorf("%s: race %v has first-event ordinal %d outside [0,%d]",
					d.Name(), r, p.FirstEvent, p.SecondEvent)
			}
		}

		ec, ok := d.(core.EventCountsProvider)
		if !ok {
			t.Errorf("%s does not provide event counts", d.Name())
			continue
		}
		counts := ec.EventCounts()
		if counts.FrameEnters == 0 || counts.FrameReturns == 0 || counts.Total() == 0 {
			t.Errorf("%s: empty event accounting %+v", d.Name(), counts)
		}
		if !rep.Empty() && counts.ShadowLookups == 0 {
			t.Errorf("%s: reported races with zero shadow lookups", d.Name())
		}
	}
	if raced == 0 {
		t.Fatal("fig1 under steal-all raced under no detector")
	}

	// The view-aware classes reach only the detector that consumes them.
	spp := dets[2].(*spplus.Detector).EventCounts()
	if spp.Steals == 0 || spp.ViewAwares == 0 {
		t.Errorf("sp+ missed steal/view-aware events: %+v", spp)
	}
	ps := dets[0].(*peerset.Detector).EventCounts()
	if ps.Loads != 0 || ps.Stores != 0 {
		t.Errorf("peer-set counted memory traffic it ignores: %+v", ps)
	}
	var zero obs.EventCounts
	if ps == zero {
		t.Error("peer-set accounting empty")
	}
}
