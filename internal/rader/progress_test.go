package rader

import (
	"sync"
	"testing"

	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/mem"
	"repro/internal/obs"
)

// progressRecorder collects every OnProgress snapshot and asserts
// per-delivery monotonicity.
type progressRecorder struct {
	mu    sync.Mutex
	snaps []obs.ProgressSnapshot
}

func (r *progressRecorder) cb(p obs.ProgressSnapshot) {
	r.mu.Lock()
	r.snaps = append(r.snaps, p)
	r.mu.Unlock()
}

func (r *progressRecorder) verify(t *testing.T) []obs.ProgressSnapshot {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	prev := obs.ProgressSnapshot{}
	for i, s := range r.snaps {
		if s.UnitsDone < prev.UnitsDone || s.UnitsTotal < prev.UnitsTotal ||
			s.EventsSkipped < prev.EventsSkipped || s.PagesCopied < prev.PagesCopied ||
			s.Races < prev.Races {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, s, prev)
		}
		prev = s
	}
	return append([]obs.ProgressSnapshot(nil), r.snaps...)
}

func sweepWithProgress(t *testing.T, name string, opts SweepOptions) (*CoverageResult, []obs.ProgressSnapshot) {
	t.Helper()
	rec := &progressRecorder{}
	opts.OnProgress = rec.cb
	for _, e := range corpus.All() {
		if e.Name != name {
			continue
		}
		cr := Sweep(func() func(*cilk.Ctx) {
			return e.Build(mem.NewAllocator())
		}, opts)
		return cr, rec.verify(t)
	}
	t.Fatalf("corpus entry %q not found", name)
	return nil, nil
}

func TestSweepProgressPrefix(t *testing.T) {
	cr, snaps := sweepWithProgress(t, "figure1-shallow-copy", SweepOptions{Workers: 4})
	first, last := snaps[0], snaps[len(snaps)-1]
	if first.UnitsTotal == 0 || first.UnitsDone != 0 {
		t.Fatalf("first snapshot should be the 0/total announcement, got %+v", first)
	}
	if last.UnitsDone != last.UnitsTotal {
		t.Fatalf("final snapshot incomplete: %+v", last)
	}
	if last.UnitsTotal != int64(cr.Stats.Groups) {
		t.Fatalf("prefix sweep total = %d units, want %d groups", last.UnitsTotal, cr.Stats.Groups)
	}
	// One announcement + one delivery per resolved unit.
	if int64(len(snaps)) != 1+last.UnitsTotal {
		t.Fatalf("got %d snapshots, want %d", len(snaps), 1+last.UnitsTotal)
	}
	if cr.Stats.EventsSkipped > 0 && last.EventsSkipped != cr.Stats.EventsSkipped {
		t.Fatalf("final EventsSkipped %d != stats %d", last.EventsSkipped, cr.Stats.EventsSkipped)
	}
	if len(cr.Races) > 0 && last.Races == 0 {
		t.Fatal("sweep found races but progress never reported any")
	}
}

// TestSweepProgressNilCallback pins that a sweep without OnProgress pays
// nothing and still works (the sink is nil and inert).
func TestSweepProgressNilCallback(t *testing.T) {
	for _, e := range corpus.All() {
		if e.Name != "clean-reducer-sum" {
			continue
		}
		cr := Sweep(func() func(*cilk.Ctx) {
			return e.Build(mem.NewAllocator())
		}, SweepOptions{Workers: 2})
		if !cr.Complete() {
			t.Fatalf("sweep failed: %v", cr.Failures)
		}
		return
	}
	t.Fatal("corpus entry not found")
}

// TestSweepPrefixWorkerLanes pins the lane-pool contract: per-unit spans
// land on lanes 1..workers and two spans on one lane never overlap in
// time (a lane is held for the unit's whole execution).
func TestSweepPrefixWorkerLanes(t *testing.T) {
	const workers = 3
	tr := obs.NewTrace()
	for _, e := range corpus.All() {
		if e.Name != "figure1-shallow-copy" {
			continue
		}
		Sweep(func() func(*cilk.Ctx) {
			return e.Build(mem.NewAllocator())
		}, SweepOptions{Workers: workers, Trace: tr})

		type iv struct{ start, end int64 }
		byLane := map[int][]iv{}
		units := 0
		for _, s := range tr.Spans() {
			if len(s.Name) < 5 || s.Name[:5] != "spec:" {
				continue
			}
			units++
			if s.TID < 1 || s.TID > workers {
				t.Fatalf("unit span %q on lane %d, want 1..%d", s.Name, s.TID, workers)
			}
			byLane[s.TID] = append(byLane[s.TID], iv{s.Start.Nanoseconds(), (s.Start + s.Dur).Nanoseconds()})
		}
		if units == 0 {
			t.Fatal("no unit spans recorded")
		}
		for lane, ivs := range byLane {
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.start < b.end && b.start < a.end {
						t.Fatalf("lane %d has overlapping unit spans %+v and %+v", lane, a, b)
					}
				}
			}
		}
		return
	}
	t.Fatal("corpus entry not found")
}
