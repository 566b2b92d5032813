package rader

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/progs"
)

// sweepEntry runs one corpus entry under opts with a fresh allocator, so
// address layouts — and with them race findings — are comparable across
// sweeps.
func sweepEntry(e corpus.Entry, opts SweepOptions) *CoverageResult {
	return Sweep(func() func(*cilk.Ctx) {
		return e.Build(mem.NewAllocator())
	}, opts)
}

// referenceEntry runs SweepReference over one corpus entry with a fresh
// allocator per instance, like sweepEntry.
func referenceEntry(e corpus.Entry, budget int64, sample int) *CoverageResult {
	return SweepReference(func() func(*cilk.Ctx) {
		return e.Build(mem.NewAllocator())
	}, budget, sample)
}

// requireEquivalent asserts the canonical CoverageResult fields of two
// sweeps are identical. SweepStats is deliberately excluded: it describes
// how a sweep executed, not what it concluded.
func requireEquivalent(t *testing.T, got, want *CoverageResult) {
	t.Helper()
	if got.Profile != want.Profile {
		t.Errorf("Profile: got %+v, want %+v", got.Profile, want.Profile)
	}
	if got.SpecsRun != want.SpecsRun {
		t.Errorf("SpecsRun: got %d, want %d", got.SpecsRun, want.SpecsRun)
	}
	if got.TotalReports() != want.TotalReports() {
		t.Errorf("TotalReports: got %d, want %d", got.TotalReports(), want.TotalReports())
	}
	if !reflect.DeepEqual(got.ViewReads.Races(), want.ViewReads.Races()) ||
		got.ViewReads.Total() != want.ViewReads.Total() {
		t.Errorf("ViewReads: got %v, want %v",
			got.ViewReads.Summary(), want.ViewReads.Summary())
	}
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Errorf("Races:\ngot:  %v\nwant: %v", got.Races, want.Races)
	}
	if fmt.Sprint(got.Failures) != fmt.Sprint(want.Failures) {
		t.Errorf("Failures:\ngot:  %v\nwant: %v", got.Failures, want.Failures)
	}
}

// The prefix-sharing sweep must be observationally indistinguishable from
// the per-specification reference sweep on every corpus program, serial
// and parallel.
func TestSweepPrefixEquivalence(t *testing.T) {
	for _, e := range corpus.All() {
		t.Run(e.Name, func(t *testing.T) {
			ref := referenceEntry(e, 0, 0)
			for _, workers := range []int{1, 4, 8} {
				requireEquivalent(t, sweepEntry(e, SweepOptions{Workers: workers}), ref)
			}
		})
	}
}

// Budget aborts must land identically on both sweeps: the guard wraps the
// gate, so a prefix unit counts the full event stream — suppressed prefix
// included — and fails on the same event with the same error text as the
// reference run of the same specification.
func TestSweepPrefixEquivalenceUnderBudget(t *testing.T) {
	for _, e := range corpus.All() {
		t.Run(e.Name, func(t *testing.T) {
			for _, budget := range []int64{40, 400} {
				sweep := sweepEntry(e, SweepOptions{Workers: 4, EventBudget: budget})
				requireEquivalent(t, sweep, referenceEntry(e, budget, 0))
			}
		})
	}
}

// Fault injection addresses trie units: the wrap sees the family index of
// the first specification in each unit's leaf group and perturbs the
// events that unit analyses. A faulted sweep must be as deterministic
// across widths as a clean one, and at least one plan must fail a unit,
// or the test could not tell a dead seam from a working one.
func TestSweepPrefixFaultsDeterministicAcrossWidths(t *testing.T) {
	e := mustEntry(t, "figure1-shallow-copy")
	plans := faults.Plans(7, 6, 400)
	ran, failed := 0, 0
	for _, plan := range plans {
		t.Run(plan.String(), func(t *testing.T) {
			ran++
			wrap := func(index int, _ cilk.StealSpec, hooks cilk.Hooks) cilk.Hooks {
				if index%3 == 0 { // fault a third of the units, spare the rest
					return faults.New(hooks, plan)
				}
				return hooks
			}
			serial := sweepEntry(e, SweepOptions{Workers: 1, Wrap: wrap})
			for _, workers := range []int{4, 8} {
				requireEquivalent(t, sweepEntry(e, SweepOptions{Workers: workers, Wrap: wrap}), serial)
			}
			if len(serial.Failures) > 0 {
				failed++
			}
		})
	}
	if ran == len(plans) && failed == 0 {
		t.Fatal("no fault plan failed a unit")
	}
}

// Sampling is part of the equivalence contract: a sampled sweep must pick
// the identical coverage-guided subset as the reference, at any worker
// count, and report the deterministic sampling stats on both. Every race
// a sampled sweep reports must also appear in the full sweep (sampling
// runs fewer schedules; it never invents findings).
func TestSweepSampledEquivalence(t *testing.T) {
	for _, e := range corpus.All() {
		t.Run(e.Name, func(t *testing.T) {
			full := sweepEntry(e, SweepOptions{Workers: 4})
			total := full.Stats.SpecsTotal
			n := total/2 + 1
			prefix := sweepEntry(e, SweepOptions{Workers: 8, SampleSpecs: n})
			ref := referenceEntry(e, 0, n)
			requireEquivalent(t, prefix, ref)
			if n >= total {
				return // family too small to sample below full coverage
			}
			for name, cr := range map[string]*CoverageResult{"sweep": prefix, "reference": ref} {
				st := cr.Stats
				if !st.Sampled || st.SpecsTotal != total || st.Confidence == "" {
					t.Errorf("%s sampling stats not reported: %+v", name, st)
				}
				if st.CoverageFraction <= 0 || st.CoverageFraction >= 1 {
					t.Errorf("%s coverage fraction %v, want in (0,1)", name, st.CoverageFraction)
				}
			}
			if prefix.SpecsRun+len(prefix.Failures) > n {
				t.Errorf("sampled sweep settled %d specs, cap was %d",
					prefix.SpecsRun+len(prefix.Failures), n)
			}
			known := make(map[string]bool)
			for _, f := range full.Races {
				known[f.Race.String()] = true
			}
			for _, f := range prefix.Races {
				if !known[f.Race.String()] {
					t.Errorf("sampled sweep invented race %v", f.Race)
				}
			}
		})
	}
}

// A prefix sweep of the family should run far fewer live units than the
// family has specifications: groups collapse stream-identical specs, and
// snapshot seeding skips shared-prefix events. This pins the mechanism
// (not the wall-clock win, which BenchmarkSweep measures). The second
// case is BenchmarkSweep's own family at its one worker, whose speedup
// means something only with at least 50 specifications to share.
func TestSweepPrefixActuallyShares(t *testing.T) {
	e := mustEntry(t, "reduce-strand-race-hidden")
	for _, c := range []struct {
		name     string
		build    func(al *mem.Allocator) func(*cilk.Ctx)
		workers  int
		minSpecs int
	}{
		{e.Name, e.Build, 4, 1},
		{"SweepStress(7,2048,64)", func(al *mem.Allocator) func(*cilk.Ctx) {
			return progs.SweepStress(al, 7, 2048, 64)
		}, 1, 50},
	} {
		cr := Sweep(func() func(*cilk.Ctx) { return c.build(mem.NewAllocator()) }, SweepOptions{Workers: c.workers})
		specs := cr.SpecsRun
		st := cr.Stats
		if specs < c.minSpecs {
			t.Errorf("%s: family has %d specs, want >= %d", c.name, specs, c.minSpecs)
		}
		if st.Groups >= specs {
			t.Errorf("%s: no spec dedup: %d groups for %d specs", c.name, st.Groups, specs)
		}
		if st.SnapshotHits == 0 {
			t.Errorf("%s: no unit was seeded from a snapshot (hits=0, misses=%d)", c.name, st.SnapshotMisses)
		}
		if st.EventsSkipped == 0 {
			t.Errorf("%s: no events were skipped; prefix sharing did no work", c.name)
		}
		units := st.SnapshotHits + st.SnapshotMisses
		if units != int64(st.Groups) {
			t.Errorf("%s: ran %d units for %d groups; each group must run exactly once", c.name, units, st.Groups)
		}
	}
}

func mustEntry(t *testing.T, name string) corpus.Entry {
	t.Helper()
	for _, e := range corpus.All() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("corpus entry %q not found", name)
	return corpus.Entry{}
}
