package rader

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cilk"
	"repro/internal/streamerr"
)

// slowFlat builds a flat program with k spawned children that each burn
// ~delay of wall time — enough specifications (1 + k + k + 2·C(k,2) +
// C(k,3)) and enough per-run latency that a mid-sweep deadline lands after
// some units completed and before others started.
func slowFlat(k int, delay time.Duration) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) {
		for i := 0; i < k; i++ {
			c.Spawn("w", func(*cilk.Ctx) {
				deadline := time.Now().Add(delay)
				for time.Now().Before(deadline) {
				}
			})
		}
		c.Sync()
	}
}

// A deadline landing mid-sweep must split the family cleanly: units that
// finished keep their verdicts, units that never started fail with
// KindDeadline. The deadline derives from one monotonic start reading, so
// completed work is never retroactively failed.
func TestSweepDeadlineMidSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts SweepOptions
	}{
		{"prefix", SweepOptions{Workers: 1, Timeout: 60 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := func() func(*cilk.Ctx) { return slowFlat(7, 2*time.Millisecond) }
			cr := Sweep(factory, tc.opts)
			// 7 flat spawns yield 92 specifications at ~14ms of wall time per
			// run; a 60ms budget cannot cover them all.
			if cr.Complete() {
				t.Fatalf("sweep of %d specs in %v reports Complete", cr.SpecsRun, tc.opts.Timeout)
			}
			if cr.SpecsRun == 0 {
				t.Fatal("no unit finished before the deadline; timeout too tight for this machine")
			}
			if cr.SpecsRun+len(cr.Failures) < 92 {
				t.Fatalf("specs unaccounted for: %d ran + %d failed", cr.SpecsRun, len(cr.Failures))
			}
			deadlineFailures := 0
			for _, sf := range cr.Failures {
				var se *streamerr.Error
				if !errors.As(sf.Err, &se) {
					t.Fatalf("failure %v is not a stream error", sf)
				}
				if se.Kind == streamerr.KindDeadline {
					deadlineFailures++
				}
			}
			if deadlineFailures == 0 {
				t.Fatalf("no deadline failure among %d failures", len(cr.Failures))
			}
		})
	}
}
