package dag

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/spplus"
)

// recordFig2 runs the Figure 2 fixture with a unique load at each numbered
// strand and returns the dag plus the strand ID of each site.
func recordFig2(spec cilk.StealSpec) (*Dag, map[int]int) {
	r := NewRecorder()
	prog := progs.Fig2(func(c *cilk.Ctx, strand int) {
		c.Load(mem.Addr(1000 + strand))
	})
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: r})
	site := make(map[int]int)
	for _, a := range r.D.Acc {
		site[int(a.Addr)-1000] = a.Strand
	}
	return r.D, site
}

func TestFig2Reachability(t *testing.T) {
	d, site := recordFig2(nil)
	// §3's worked claims: 4 ≺ 9 and 9 ‖ 10.
	if !d.Precedes(site[4], site[9]) {
		t.Error("strand 4 must precede strand 9")
	}
	if !d.Parallel(site[9], site[10]) {
		t.Error("strands 9 and 10 must be parallel")
	}
	// Serial order is total within a function: 1 ≺ 4 ≺ 10 ≺ 15 ≺ 16.
	for _, pair := range [][2]int{{1, 4}, {4, 10}, {10, 15}, {15, 16}, {1, 16}} {
		if !d.Precedes(site[pair[0]], site[pair[1]]) {
			t.Errorf("strand %d must precede %d", pair[0], pair[1])
		}
	}
	// Spawned subtrees are parallel to continuations: 2 ‖ 4, 2 ‖ 15, 6 ‖ 8.
	for _, pair := range [][2]int{{2, 4}, {2, 15}, {6, 8}, {5, 10}, {12, 14}} {
		if !d.Parallel(site[pair[0]], site[pair[1]]) {
			t.Errorf("strands %d and %d must be parallel", pair[0], pair[1])
		}
	}
	// Everything precedes the final strand 16.
	for s := 1; s < 16; s++ {
		if !d.Precedes(site[s], site[16]) {
			t.Errorf("strand %d must precede 16", s)
		}
	}
}

func TestFig2PeerClasses(t *testing.T) {
	d, site := recordFig2(nil)
	class := make(map[int]int) // figure strand -> class index
	for ci, members := range progs.Fig2PeerClasses {
		for _, m := range members {
			class[m] = ci
		}
	}
	for a := 1; a <= progs.Fig2Strands; a++ {
		for b := a + 1; b <= progs.Fig2Strands; b++ {
			same := d.SamePeers(site[a], site[b])
			want := class[a] == class[b]
			if same != want {
				t.Errorf("SamePeers(%d,%d) = %v, want %v", a, b, same, want)
			}
		}
	}
}

func TestFig2ViewReadOracleMatchesPeerSet(t *testing.T) {
	// For every pair of read sites, the dag oracle and the Peer-Set
	// detector must agree.
	for a := 1; a <= progs.Fig2Strands; a++ {
		for b := a; b <= progs.Fig2Strands; b++ {
			rec := NewRecorder()
			det := peerset.New()
			cilk.Run(progs.Fig2Reads(a, b), cilk.Config{Hooks: cilk.Multi{rec, det}})
			oracle := rec.D.HasViewReadRace()
			got := !det.Report().Empty()
			if oracle != got {
				t.Errorf("reads (%d,%d): oracle=%v peer-set=%v", a, b, oracle, got)
			}
		}
	}
}

func TestFig5PerformanceDag(t *testing.T) {
	r := NewRecorder()
	siteAddr := map[string]mem.Addr{}
	next := mem.Addr(2000)
	prog := progs.Fig5(func(c *cilk.Ctx, site string) {
		if _, ok := siteAddr[site]; !ok {
			siteAddr[site] = next
			next++
		}
		c.Load(siteAddr[site])
	}, nil)
	cilk.Run(prog, cilk.Config{Spec: progs.Fig5Spec{}, Hooks: r})
	d := r.D

	reduces := d.ReduceStrands()
	if len(reduces) != 3 {
		t.Fatalf("reduce strands = %d, want 3", len(reduces))
	}
	r0, r1, r2 := reduces[0], reduces[1], reduces[2]

	// The reduce tree: r2 joins the outputs of r0 and r1.
	if !d.Precedes(r0, r2) || !d.Precedes(r1, r2) {
		t.Error("r2 must depend on r0 and r1")
	}
	// r0 and r1 are parallel — they live in different subtrees of the
	// reduce tree.
	if !d.Parallel(r0, r1) {
		t.Error("r0 and r1 must be parallel")
	}

	site := func(name string) int {
		for _, a := range d.Acc {
			if a.Addr == siteAddr[name] {
				return a.Strand
			}
		}
		t.Fatalf("site %q not recorded", name)
		return -1
	}

	// The stolen continuation a:3 (view γ) does not wait for r0.
	if !d.Parallel(r0, site("a:3")) {
		t.Error("r0 must be parallel with the stolen continuation a:3")
	}
	// δ's strand a:4 feeds r1.
	if !d.Precedes(site("a:4"), r1) {
		t.Error("a:4 must precede r1")
	}
	// f's work feeds r1 through e's return.
	if !d.Precedes(site("f"), r1) {
		t.Error("f must precede r1")
	}
	// c's work feeds r0 (c updated view β).
	if !d.Precedes(site("c:1"), r0) {
		t.Error("c must precede r0")
	}
	// r1 is parallel with strands in c — the §6 race scenario.
	if !d.Parallel(r1, site("c:1")) {
		t.Error("r1 must be parallel with c's strands")
	}
	// Everything precedes the final strand a:5 (after the sync).
	for _, s := range []string{"b", "c:1", "d", "e:1", "f", "a:4"} {
		if !d.Precedes(site(s), site("a:5")) {
			t.Errorf("%s must precede a:5", s)
		}
	}
	// View IDs per strand.
	vids := map[string]cilk.ViewID{
		"a:1": 0, "b": 0, // α
		"a:2": 1, "c:1": 1, "d": 1, // β
		"a:3": 2, "e:1": 2, "f": 2, // γ
		"a:4": 3, // δ
		"a:5": 0, // back to α after the sync
	}
	for name, want := range vids {
		if got := d.Strands[site(name)].VID; got != want {
			t.Errorf("vid(%s) = %d, want %d", name, got, want)
		}
	}
	// Reduce strands carry the surviving view: r0 → α, r1 → γ, r2 → α.
	if d.Strands[r0].VID != 0 || d.Strands[r1].VID != 2 || d.Strands[r2].VID != 0 {
		t.Errorf("reduce vids = %d,%d,%d, want 0,2,0",
			d.Strands[r0].VID, d.Strands[r1].VID, d.Strands[r2].VID)
	}
}

func TestDeterminacyOracleBasics(t *testing.T) {
	al := mem.NewAllocator()
	x := al.Alloc("x", 1)
	rec := NewRecorder()
	cilk.Run(func(c *cilk.Ctx) {
		c.Spawn("w", func(c *cilk.Ctx) { c.Store(x.At(0)) })
		c.Load(x.At(0))
		c.Sync()
		c.Load(x.At(0)) // after sync: no race with the write
	}, cilk.Config{Hooks: rec})
	races := rec.D.DeterminacyRaces()
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
}

// oracleVsSPPlus runs one random program under one spec with both the
// recorder and the SP+ detector attached and checks the sandwich property:
// every physically racy address is reported, and every reported address is
// racy under the literal §5 pairwise condition. On runs without view-aware
// accesses the two oracles coincide and the check is exact.
func oracleVsSPPlus(t *testing.T, seed int64, p float64, order cilk.ReduceOrder, monoidStores bool) {
	t.Helper()
	al := mem.NewAllocator()
	prog := progs.Random(al, progs.RandomOpts{
		Seed: seed, MonoidStores: monoidStores,
	})
	rec := NewRecorder()
	det := spplus.New()
	spec := progs.RandomSpec{Seed: seed + 1, P: p, Reduce: order}
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: cilk.Multi{rec, det}})

	physical := rec.D.RacyAddrs()
	liberal := rec.D.LiberalRacyAddrs()
	got := make(map[mem.Addr]bool)
	for _, r := range det.Report().Races() {
		got[r.Addr] = true
	}
	for a := range physical {
		if !got[a] {
			t.Fatalf("seed %d p=%.2f order=%d: physically racy addr %#x missed by SP+ (oracle %v, SP+ %v)",
				seed, p, order, uint64(a), keys(physical), keys(got))
		}
	}
	for a := range got {
		if !liberal[a] {
			t.Fatalf("seed %d p=%.2f order=%d: SP+ reported %#x, not racy even under the literal §5 condition (liberal %v)",
				seed, p, order, uint64(a), keys(liberal))
		}
	}
}

func keys(m map[mem.Addr]bool) []string {
	var out []string
	for k := range m {
		out = append(out, fmt.Sprintf("%#x", uint64(k)))
	}
	return out
}

func TestQuickSPPlusMatchesOracle(t *testing.T) {
	check := func(seed int64) bool {
		for _, p := range []float64{0, 0.3, 1} {
			for _, order := range []cilk.ReduceOrder{cilk.ReduceAtSync, cilk.ReduceEager, cilk.ReduceMiddleFirst} {
				oracleVsSPPlus(t, seed, p, order, true)
				oracleVsSPPlus(t, seed, p, order, false)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickObliviousExactEquivalence: on reducer-free programs the
// physical and literal oracles coincide and SP+, SP-bags and the oracle
// must agree exactly, per address, under every schedule.
func TestQuickObliviousExactEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		for _, p := range []float64{0, 0.5, 1} {
			al := mem.NewAllocator()
			prog := progs.Random(al, progs.RandomOpts{Seed: seed, NoReducers: true})
			rec := NewRecorder()
			plus := spplus.New()
			bags := spplus.NewSPBags()
			spec := progs.RandomSpec{Seed: seed + 3, P: p}
			cilk.Run(prog, cilk.Config{Spec: spec, Hooks: cilk.Multi{rec, plus, bags}})

			physical := rec.D.RacyAddrs()
			liberal := rec.D.LiberalRacyAddrs()
			if len(physical) != len(liberal) {
				t.Logf("seed %d: oracles diverge on oblivious program", seed)
				return false
			}
			for _, det := range []core.Detector{plus, bags} {
				got := make(map[mem.Addr]bool)
				for _, r := range det.Report().Races() {
					got[r.Addr] = true
				}
				if len(got) != len(physical) {
					t.Logf("seed %d p=%.1f: %s found %d addrs, oracle %d",
						seed, p, det.Name(), len(got), len(physical))
					return false
				}
				for a := range physical {
					if !got[a] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPeerSetMatchesOracle(t *testing.T) {
	check := func(seed int64) bool {
		al := mem.NewAllocator()
		prog := progs.Random(al, progs.RandomOpts{Seed: seed, Reads: true})
		rec := NewRecorder()
		det := peerset.New()
		cilk.Run(prog, cilk.Config{Hooks: cilk.Multi{rec, det}})
		oracle := rec.D.HasViewReadRace()
		got := !det.Report().Empty()
		if oracle != got {
			t.Logf("seed %d: oracle=%v peer-set=%v", seed, oracle, got)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardEdgesInvariant(t *testing.T) {
	// The recorder promises every edge goes forward in strand-ID order
	// (edge panics otherwise); this exercises it on a convoluted run.
	al := mem.NewAllocator()
	prog := progs.Random(al, progs.RandomOpts{Seed: 99, MonoidStores: true, Reads: true})
	rec := NewRecorder()
	cilk.Run(prog, cilk.Config{Spec: progs.RandomSpec{Seed: 7, P: 0.5}, Hooks: rec})
	n := len(rec.D.Strands)
	if n == 0 {
		t.Fatal("no strands recorded")
	}
	for u, succs := range rec.D.Out {
		for _, v := range succs {
			if v <= u || v >= n {
				t.Fatalf("bad edge %d -> %d", u, v)
			}
		}
	}
}

func TestStrandsOfAndHelpers(t *testing.T) {
	d, site := recordFig2(nil)
	root := d.Strands[site[1]].Frame
	if got := len(d.StrandsOf(root)); got < 5 {
		t.Fatalf("root has %d strands, want >= 5", got)
	}
	if d.Precedes(site[9], site[9]) || d.Parallel(site[9], site[9]) {
		t.Fatal("a strand neither precedes nor parallels itself")
	}
}
