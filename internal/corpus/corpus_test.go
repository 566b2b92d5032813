package corpus

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/rader"
)

// TestCorpusMatrix sweeps every catalogued program through every detector
// configuration and checks the expected verdicts.
func TestCorpusMatrix(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			al := mem.NewAllocator()
			prog := e.Build(al)

			// Peer-Set (schedule-independent; check two schedules anyway).
			for _, spec := range []cilk.StealSpec{nil, cilk.StealAll{}} {
				out := rader.MustRun(prog, rader.Config{Detector: rader.PeerSet, Spec: spec})
				if got := !out.Report.Empty(); got != e.ViewRead {
					t.Errorf("peer-set (spec %v): race=%v, want %v\n%s",
						spec, got, e.ViewRead, out.Report.Summary())
				}
			}

			// SP+ under the two canonical schedules.
			serial := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus})
			if got := !serial.Report.Empty(); got != e.DetSerial {
				t.Errorf("sp+ serial: race=%v, want %v\n%s", got, e.DetSerial, serial.Report.Summary())
			}
			all := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus, Spec: cilk.StealAll{}})
			if got := !all.Report.Empty(); got != e.DetStealAll {
				t.Errorf("sp+ steal-all: race=%v, want %v\n%s", got, e.DetStealAll, all.Report.Summary())
			}

			// The §7 sweep, on a fresh instance per run.
			cr := rader.Sweep(func() func(*cilk.Ctx) { return e.Build(mem.NewAllocator()) }, rader.SweepOptions{})
			if got := len(cr.Races) > 0; got != e.DetSweep {
				t.Errorf("sweep: race=%v, want %v (%d specs)", got, e.DetSweep, cr.SpecsRun)
			}
			if got := !cr.ViewReads.Empty(); got != e.ViewRead {
				t.Errorf("sweep view-read: %v, want %v", got, e.ViewRead)
			}

			// A finding implies a replayable schedule that reproduces it.
			if e.DetStealAll {
				replayed := rader.MustRun(prog, rader.Config{Detector: rader.SPPlus, Spec: cilk.StealAll{}})
				if replayed.Report.Empty() {
					t.Error("steal-all verdict not reproducible")
				}
			}

			// Reducer-oblivious baselines agree with SP+ on pure programs.
			if e.Oblivious {
				for _, det := range []rader.DetectorName{rader.SPBags, rader.OffsetSpan, rader.EnglishHebrew} {
					out := rader.MustRun(prog, rader.Config{Detector: det})
					if got := !out.Report.Empty(); got != e.DetSerial {
						t.Errorf("%s: race=%v, want %v", det, got, e.DetSerial)
					}
				}
			}
		})
	}
}

// TestCorpusWellFormed checks catalogue hygiene: names unique, all
// programs rerunnable, and every entry's flags internally consistent
// (steal-all races must be sweep-visible; serial races imply steal-all).
func TestCorpusWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Errorf("duplicate corpus name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" {
			t.Errorf("%s: missing description", e.Name)
		}
		if e.DetSerial && !e.DetStealAll {
			t.Errorf("%s: a serial-schedule race exists under every schedule", e.Name)
		}
		if e.DetStealAll && !e.DetSweep {
			t.Errorf("%s: the sweep includes rich schedules; steal-all races must be found", e.Name)
		}
		// Rerunnable: run twice without error.
		al := mem.NewAllocator()
		prog := e.Build(al)
		cilk.Run(prog, cilk.Config{})
		cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}})
	}
}

// TestCilkScreenStyleMiss pins §2's motivating claim: "A tool such as Cilk
// Screen will not catch this particular race, because the determinacy race
// involves a view-aware instruction executed in a Reduce operation." A
// Cilk-Screen-style tool analyses the serial execution with no steal
// simulation, so a racy write that exists ONLY inside a Reduce operation —
// the corpus's reduce-strand-race-hidden program — never executes under
// its analysis, whichever classic algorithm (SP-bags or either §9 labeling
// scheme) it embodies. SP+ plus the §7 specification family finds it.
func TestCilkScreenStyleMiss(t *testing.T) {
	var entry Entry
	for _, e := range All() {
		if e.Name == "reduce-strand-race-hidden" {
			entry = e
		}
	}
	al := mem.NewAllocator()
	prog := entry.Build(al)

	// The Cilk-Screen stand-ins: classic detectors on the serial schedule.
	for _, det := range []rader.DetectorName{rader.SPBags, rader.OffsetSpan, rader.EnglishHebrew} {
		if out := rader.MustRun(prog, rader.Config{Detector: det}); !out.Report.Empty() {
			t.Fatalf("%s on the serial schedule: the racy write never executes, yet:\n%s",
				det, out.Report.Summary())
		}
	}
	// SP+ with the generated specification family finds it.
	cr := rader.Sweep(func() func(*cilk.Ctx) { return entry.Build(mem.NewAllocator()) }, rader.SweepOptions{})
	if len(cr.Races) == 0 {
		t.Fatal("the §7 sweep must find the hidden reduce-strand race")
	}
}
