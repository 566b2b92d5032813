package cilk_test

import (
	"runtime"
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/peerset"
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

// bagDetectors are the three detectors that keep bags in a disjoint-set
// forest.
var bagDetectors = []func() core.Detector{
	func() core.Detector { return peerset.New() },
	func() core.Detector { return spplus.NewSPBags() },
	func() core.Detector { return spplus.New() },
}

// TestDetectorAllocsFlatInFrames: the three bag detectors reuse frame
// records by depth, so a 64k-frame run allocates under 1% of its frame
// count — only the forest, the lineage and the detector itself grow. The
// CI allocation-regression step runs this test.
func TestDetectorAllocsFlatInFrames(t *testing.T) {
	const height = 15
	frames := float64(int(1)<<(height+1) - 1)
	for _, det := range bagDetectors {
		name := det().Name()
		allocs := allocsPerRun(tree(height), func() cilk.Hooks { return det() })
		if allocs >= frames/100 {
			t.Errorf("%s: %.0f allocations over %.0f frames, want under 1%%", name, allocs, frames)
		}
		t.Logf("%s: %.0f allocations over %.0f frames", name, allocs, frames)
	}
}

// TestDetectorBytesPerFrame: the bag detectors mint a forest node and a
// lineage entry only for an ID they store, in chunks that growth never
// copies, and no bag points into the forest. A 64k-frame run that stores
// nothing allocates about 0.1 bytes per frame; the bound of 40 also holds
// a detector that mints every frame's ID (about 28 bytes). The CI
// allocation-regression step runs this test.
func TestDetectorBytesPerFrame(t *testing.T) {
	const height, runs = 15, 4
	frames := float64(int(1)<<(height+1) - 1)
	prog := tree(height)
	for _, det := range bagDetectors {
		name := det().Name()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cilk.Run(prog, cilk.Config{Hooks: det()})
		}
		runtime.ReadMemStats(&after)
		perFrame := float64(after.TotalAlloc-before.TotalAlloc) / runs / frames
		if perFrame > 40 {
			t.Errorf("%s: %.1f bytes per frame, want at most 40", name, perFrame)
		}
		t.Logf("%s: %.1f bytes per frame", name, perFrame)
	}
}

// leftStoreTree is tree(height) in which only the leftmost leaf, the one
// reached by spawns alone, performs a memory access: a store.
func leftStoreTree(height int) func(*cilk.Ctx) {
	var body func(c *cilk.Ctx, left bool)
	body = func(c *cilk.Ctx, left bool) {
		if c.Frame().Depth == height {
			if left {
				c.Store(0x1000)
			}
			return
		}
		c.Spawn("l", func(c *cilk.Ctx) { body(c, left) })
		c.Call("r", func(c *cilk.Ctx) { body(c, false) })
		c.Sync()
	}
	return func(c *cilk.Ctx) { body(c, true) }
}

// TestBagDetectorsMintOnlyStoredIDs: a bag detector mints a disjoint-set
// element only for an ID a shadow cell or reader record stores, together
// with its unminted ancestors for the lineage. A tree that stores nothing
// mints nothing; when only the leftmost leaf stores, SP-bags and SP+ mint
// the leaf and its height ancestors, and Peer-Set, which stores only
// reducer readers, still mints nothing. The CI allocation-regression step
// runs this test.
func TestBagDetectorsMintOnlyStoredIDs(t *testing.T) {
	const height = 15
	elems := func(det core.Detector, prog func(*cilk.Ctx)) int {
		cilk.Run(prog, cilk.Config{Hooks: det})
		return det.(core.StatsProvider).Stats().Elems
	}
	for _, det := range bagDetectors {
		name := det().Name()
		if got := elems(det(), tree(height)); got != 0 {
			t.Errorf("%s: %d elements on a tree that stores nothing, want 0", name, got)
		}
		want := height + 1
		if name == "peer-set" {
			want = 0
		}
		if got := elems(det(), leftStoreTree(height)); got != want {
			t.Errorf("%s: %d elements when only the leftmost leaf stores, want %d", name, got, want)
		}
	}
}

// racyStores is a program with n determinacy races at n distinct
// addresses: a spawned strand stores each address and the continuation
// stores it again.
func racyStores(n int) func(*cilk.Ctx) {
	stores := func(c *cilk.Ctx) {
		for i := 0; i < n; i++ {
			c.Store(mem.Addr(0x1000 + 8*i))
		}
	}
	return func(c *cilk.Ctx) {
		c.Spawn("w", stores)
		stores(c)
		c.Sync()
	}
}

// TestDetectorAllocsPerExtraRace: a report keeps 1,024 races and only
// counts the rest, and the detectors render a race only when the report
// keeps it, so races past the limit cost next to no allocation. The CI
// allocation-regression step runs this test.
func TestDetectorAllocsPerExtraRace(t *testing.T) {
	const small, large = 2048, 8192
	for _, det := range []func() core.Detector{
		func() core.Detector { return spplus.NewSPBags() },
		func() core.Detector { return spplus.New() },
		func() core.Detector { return depa.New() },
	} {
		name := det().Name()
		allocs := func(n int) float64 {
			prog := racyStores(n)
			return testing.AllocsPerRun(3, func() {
				d := det()
				cilk.Run(prog, cilk.Config{Hooks: d})
				if got := d.Report().Distinct(); got != n {
					t.Fatalf("%s: %d distinct races, want %d", name, got, n)
				}
			})
		}
		perRace := (allocs(large) - allocs(small)) / (large - small)
		if perRace >= 0.1 {
			t.Errorf("%s: %.2f allocations per race past the report limit, want under 0.1", name, perRace)
		}
		t.Logf("%s: %.3f allocations per race past the report limit", name, perRace)
	}
}
