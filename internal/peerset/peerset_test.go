package peerset

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/progs"
)

// runReads executes the Figure 2 fixture with reducer-reads at the given
// strands and returns the Peer-Set report.
func runReads(t *testing.T, readAt ...int) *core.Report {
	t.Helper()
	d := New()
	cilk.Run(progs.Fig2Reads(readAt...), cilk.Config{Hooks: d})
	return d.Report()
}

func TestFig2PeerClassesNoRaceWithin(t *testing.T) {
	// Reads confined to a single peer-set equivalence class never race.
	for _, class := range progs.Fig2PeerClasses {
		rep := runReads(t, class...)
		if !rep.Empty() {
			t.Errorf("reads at %v (one peer class) reported: %s", class, rep.Summary())
		}
	}
}

func TestFig2CrossClassRaces(t *testing.T) {
	// Reads spanning two different classes always race. Check every pair
	// of class representatives.
	for i, ci := range progs.Fig2PeerClasses {
		for j, cj := range progs.Fig2PeerClasses {
			if i == j {
				continue
			}
			a, b := ci[0], cj[0]
			if a > b {
				a, b = b, a // serial order
			}
			rep := runReads(t, a, b)
			if rep.Empty() {
				t.Errorf("reads at %d and %d (different peer classes) not reported", a, b)
			}
		}
	}
}

func TestFig2PaperExamples(t *testing.T) {
	// §3's worked examples on Figure 2.
	cases := []struct {
		reads []int
		race  bool
		why   string
	}{
		{[]int{5, 9}, false, "strands 5 and 9 have the same peers"},
		{[]int{10, 14}, true, "strands 12,13 are peers of 14 but not of 10"},
		{[]int{1, 9}, true, "the paper's example race"},
		{[]int{10, 11}, false, "11's peer set matches 10, the caller of e"},
		{[]int{11, 15}, false, "SP-bag path with equal spawn counts"},
		{[]int{14, 15}, true, "SP-bag path with different spawn counts"},
		{[]int{9, 10}, true, "logically parallel reads (P-bag path)"},
		{[]int{1, 16}, false, "empty peer sets on both ends"},
		{[]int{1, 4}, true, "spawn of b changed the peer set"},
		{[]int{5, 8}, true, "d is a peer of 8 but not of 5"},
	}
	for _, tc := range cases {
		rep := runReads(t, tc.reads...)
		if got := !rep.Empty(); got != tc.race {
			t.Errorf("reads %v: race=%v, want %v (%s)\n%s",
				tc.reads, got, tc.race, tc.why, rep.Summary())
		}
	}
}

func TestEarliestRaceDedup(t *testing.T) {
	// Reads at 1, then twice at 9: one distinct race (1 vs 9); the second
	// read at 9 has the same peers as the first so reader() was replaced
	// and no second distinct pair appears.
	rep := runReads(t, 1, 9, 9)
	if rep.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1:\n%s", rep.Distinct(), rep.Summary())
	}
}

func TestMultipleReducersIndependent(t *testing.T) {
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r1 := c.NewReducerQuiet("one", progs.SumMonoid, 0)
		r2 := c.NewReducerQuiet("two", progs.SumMonoid, 0)
		c.Value(r1) // strand with empty peer set
		c.Spawn("f", func(c *cilk.Ctx) {
			c.Value(r2)
		})
		c.Value(r2) // races with the read in f (parallel)
		c.Sync()
		c.Value(r1) // same peers as the first r1 read: no race
	}, cilk.Config{Hooks: d})
	rep := d.Report()
	if rep.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1:\n%s", rep.Distinct(), rep.Summary())
	}
	if rep.Races()[0].Reducer != "two" {
		t.Fatalf("racing reducer = %q, want two", rep.Races()[0].Reducer)
	}
}

func TestCreateCountsAsRead(t *testing.T) {
	// Creating a reducer is a reducer-read; creating before a spawn and
	// reading in the spawned child races.
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducer("h", progs.SumMonoid, 0)
		c.Spawn("f", func(c *cilk.Ctx) { c.Value(r) })
		c.Sync()
	}, cilk.Config{Hooks: d})
	if d.Report().Empty() {
		t.Fatal("create-then-parallel-read must race: create at empty peers, read has different peers")
	}
}

func TestSetValueCountsAsRead(t *testing.T) {
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("h", progs.SumMonoid, 0)
		c.Spawn("f", func(*cilk.Ctx) {})
		c.SetValue(r, 1) // spawn count now 1
		c.Sync()
		c.Value(r) // spawn count 0 again: different peer set
	}, cilk.Config{Hooks: d})
	if d.Report().Empty() {
		t.Fatal("set_value before sync then get_value after sync must race")
	}
}

func TestUpdateIsNotARead(t *testing.T) {
	// Update, Create-Identity and Reduce do not count as reducer-reads;
	// the canonical update-in-parallel-then-read-after-sync pattern is
	// race-free.
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducer("sum", progs.SumMonoid, 0)
		c.ParForGrain("upd", 16, 2, func(c *cilk.Ctx, i int) {
			c.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + i })
		})
		if got := c.Value(r).(int); got != 120 {
			t.Fatalf("sum = %d, want 120", got)
		}
	}, cilk.Config{Hooks: d})
	if !d.Report().Empty() {
		t.Fatalf("canonical reducer pattern must be race-free:\n%s", d.Report().Summary())
	}
}

func TestFig1ViewReadVariants(t *testing.T) {
	run := func(opts progs.Fig1Options) *core.Report {
		d := New()
		al := mem.NewAllocator()
		cilk.Run(progs.Fig1(al, opts), cilk.Config{Hooks: d})
		return d.Report()
	}
	if rep := run(progs.Fig1Options{}); !rep.Empty() {
		t.Fatalf("correct Figure 1 reducer usage has no view-read race:\n%s", rep.Summary())
	}
	if rep := run(progs.Fig1Options{EarlyGetValue: true}); !rep.HasKind(core.ViewRead) {
		t.Fatal("get_value before cilk_sync must be a view-read race")
	}
	if rep := run(progs.Fig1Options{SetValueAfterSpawn: true}); !rep.HasKind(core.ViewRead) {
		t.Fatal("set_value after cilk_spawn must be a view-read race (even if benign)")
	}
}

func TestScheduleIndependence(t *testing.T) {
	// Peer-Set analyses logical parallelism; simulated steals must not
	// change its verdicts.
	for _, spec := range []cilk.StealSpec{
		cilk.NoSteals{},
		cilk.StealAll{},
		cilk.StealAll{Reduce: cilk.ReduceEager},
	} {
		d := New()
		cilk.Run(progs.Fig2Reads(10, 14), cilk.Config{Spec: spec, Hooks: d})
		if d.Report().Empty() {
			t.Errorf("spec %#v: race missed", spec)
		}
		d2 := New()
		cilk.Run(progs.Fig2Reads(5, 9), cilk.Config{Spec: spec, Hooks: d2})
		if !d2.Report().Empty() {
			t.Errorf("spec %#v: false positive", spec)
		}
	}
}

func TestDeepNestingStress(t *testing.T) {
	// A deep spawn chain with reads at every level: each level's read has
	// a different peer set from its parent's, so n-1 races involving the
	// last reader are found — but distinct pairs get deduped as reader()
	// advances. Just assert it terminates and reports something.
	d := New()
	var nest func(c *cilk.Ctx, r *cilk.Reducer, depth int)
	nest = func(c *cilk.Ctx, r *cilk.Reducer, depth int) {
		if depth == 0 {
			return
		}
		c.Value(r)
		c.Spawn("n", func(cc *cilk.Ctx) { nest(cc, r, depth-1) })
		c.Sync()
	}
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("h", progs.SumMonoid, 0)
		nest(c, r, 50)
	}, cilk.Config{Hooks: d})
	if d.Report().Empty() {
		t.Fatal("nested reads at different depths must race")
	}
}

// TestReadAtContinuationStrand pins a read at a continuation strand of a
// called function: c's read has peers {s}, main's later read has peers
// {s'}, yet both read at spawn count 1 and c's ID ends up in main.SS. The
// reader must follow c's continuation strand into a P bag instead.
func TestReadAtContinuationStrand(t *testing.T) {
	rec := dag.NewRecorder()
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("r", progs.SumMonoid, 0)
		c.Sync()
		c.Call("c", func(cc *cilk.Ctx) {
			cc.Spawn("s", func(*cilk.Ctx) {})
			cc.Value(r)
			cc.Sync()
		})
		c.Spawn("s'", func(*cilk.Ctx) {})
		c.Value(r)
		c.Sync()
	}, cilk.Config{Hooks: cilk.Multi{rec, d}})
	if !rec.D.HasViewReadRace() {
		t.Fatal("the dag oracle must find the race")
	}
	races := d.Report().Races()
	if len(races) != 1 {
		t.Fatalf("want the one view-read race, got:\n%s", d.Report().Summary())
	}
	// The fresh reader element renders its frame's path.
	if got := races[0].First; got.Label != "c" || got.Path != "main>c" {
		t.Fatalf("first reader = %+v, want c at main>c", got)
	}
	// The second read is main's first store of its own ID: the race must
	// mint it before rendering it.
	if got := races[0].Second; got.Frame != 0 || got.Label != "main" || got.Path != "main" {
		t.Fatalf("second reader = %+v, want frame 0, main at main", got)
	}
	if got := races[0].Prov.Relation; got != "reader in P-bag" {
		t.Fatalf("relation = %q, want reader in P-bag", got)
	}
}

// TestRaceMintsSecondReader: b's read is the first use of b's ID, and it
// races with a's, so the race must mint b's ID before rendering it.
func TestRaceMintsSecondReader(t *testing.T) {
	d := New()
	cilk.Run(func(c *cilk.Ctx) {
		r := c.NewReducerQuiet("r", progs.SumMonoid, 0)
		c.Spawn("a", func(cc *cilk.Ctx) { cc.Value(r) })
		c.Call("b", func(cc *cilk.Ctx) { cc.Value(r) })
		c.Sync()
	}, cilk.Config{Hooks: d})
	races := d.Report().Races()
	if len(races) != 1 {
		t.Fatalf("want one view-read race, got:\n%s", d.Report().Summary())
	}
	if got := races[0].Second; got.Label != "b" || got.Path != "main>b" {
		t.Fatalf("second reader = %+v, want b at main>b", got)
	}
}

// TestOracleSeeds pins the random programs on which Peer-Set once missed
// a view-read race the dag oracle finds.
func TestOracleSeeds(t *testing.T) {
	for _, seed := range []int64{-9117238200276258988, 5300689013499601254} {
		al := mem.NewAllocator()
		rec := dag.NewRecorder()
		d := New()
		cilk.Run(progs.Random(al, progs.RandomOpts{Seed: seed, Reads: true}),
			cilk.Config{Hooks: cilk.Multi{rec, d}})
		if oracle, got := rec.D.HasViewReadRace(), !d.Report().Empty(); oracle != got {
			t.Errorf("seed %d: oracle %v, peer-set %v", seed, oracle, got)
		}
	}
}
