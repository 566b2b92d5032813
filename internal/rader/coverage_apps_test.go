package rader

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
)

// TestCoverageSweepOnBenchmarks runs the full §7 specification sweep on
// each evaluation benchmark at test scale: the five ostensibly
// deterministic ones must come out clean across every generated
// specification, and pbfs's findings must all be its known benign
// distance-array races.
func TestCoverageSweepOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs hundreds of analysed executions")
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			// Every instance has the same address layout, so al describes
			// the addresses of the fresh instance each sweep run builds.
			al := mem.NewAllocator()
			app.Build(al, apps.Test)
			cr := Sweep(func() func(*cilk.Ctx) { return app.Build(mem.NewAllocator(), apps.Test).Prog }, SweepOptions{})
			if cr.SpecsRun < 2 {
				t.Fatalf("sweep ran only %d specs", cr.SpecsRun)
			}
			if !cr.ViewReads.Empty() {
				t.Fatalf("view-read races in a benchmark:\n%s", cr.ViewReads.Summary())
			}
			if app.Name == "pbfs" {
				for _, f := range cr.Races {
					if d := al.Describe(f.Race.Addr); !strings.HasPrefix(d, "dist") {
						t.Fatalf("pbfs race outside dist region: %v at %s (spec %s)",
							f.Race, d, f.Spec)
					}
				}
				if len(cr.Races) == 0 {
					t.Fatal("pbfs's benign distance races should surface under some spec")
				}
				return
			}
			if len(cr.Races) != 0 {
				t.Fatalf("%s must be race-free across the sweep; found %d, first: [%s] %v",
					app.Name, len(cr.Races), cr.Races[0].Spec, cr.Races[0].Race)
			}
		})
	}
}
