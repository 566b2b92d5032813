package cilk_test

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/peerset"
	"repro/internal/spbags"
	"repro/internal/spplus"
)

// tree is a reducer-free program: a full binary tree of spawns and calls
// of the given height, 2^(height+1)-1 frames. Its one closure is built
// once, so the program itself allocates nothing per frame.
func tree(height int) func(*cilk.Ctx) {
	var body func(*cilk.Ctx)
	body = func(c *cilk.Ctx) {
		if c.Frame().Depth < height {
			c.Spawn("l", body)
			c.Call("r", body)
			c.Sync()
		}
	}
	return body
}

func allocsPerRun(prog func(*cilk.Ctx), hooks func() cilk.Hooks) float64 {
	return testing.AllocsPerRun(5, func() {
		cilk.Run(prog, cilk.Config{Hooks: hooks()})
	})
}

// TestRunAllocsFlatInFrames: the executor reuses frames by depth, so an
// uninstrumented run allocates the same at 1k frames as at 64k. The CI
// allocation-regression step runs this test.
func TestRunAllocsFlatInFrames(t *testing.T) {
	none := func() cilk.Hooks { return nil }
	small, large := allocsPerRun(tree(9), none), allocsPerRun(tree(15), none)
	// Six more levels may add a frame and a stack slot each.
	if large > small+12 {
		t.Fatalf("%.0f allocations at 64k frames, %.0f at 1k: the executor allocates per frame", large, small)
	}
	t.Logf("%.0f allocations at 1k frames, %.0f at 64k", small, large)
}

// TestDetectorAllocsFlatInFrames: the three bag detectors reuse frame
// records by depth, so a 64k-frame run allocates under 1% of its frame
// count — only the forest, the lineage and the detector itself grow. The
// CI allocation-regression step runs this test.
func TestDetectorAllocsFlatInFrames(t *testing.T) {
	const height = 15
	frames := float64(int(1)<<(height+1) - 1)
	for _, det := range []func() core.Detector{
		func() core.Detector { return peerset.New() },
		func() core.Detector { return spbags.New() },
		func() core.Detector { return spplus.New() },
	} {
		name := det().Name()
		allocs := allocsPerRun(tree(height), func() cilk.Hooks { return det() })
		if allocs >= frames/100 {
			t.Errorf("%s: %.0f allocations over %.0f frames, want under 1%%", name, allocs, frames)
		}
		t.Logf("%s: %.0f allocations over %.0f frames", name, allocs, frames)
	}
}
