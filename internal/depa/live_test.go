package depa

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/progs"
	"repro/internal/spplus"
	"repro/internal/wsrt"
)

// bridgedProgram is one program rader -live runs: its catalogue name and
// a builder of fresh bridged bodies.
type bridgedProgram struct {
	Name  string
	Build func() func(progs.BCtx)
}

// bridgedPrograms resolves every live program through corpus.Lookup, the
// catalogue rader -live reads.
func bridgedPrograms(t *testing.T) []bridgedProgram {
	t.Helper()
	var out []bridgedProgram
	for _, name := range corpus.LiveNames() {
		out = append(out, lookupBridged(t, name))
	}
	return out
}

// lookupBridged resolves one live program or fails the test.
func lookupBridged(t *testing.T, name string) bridgedProgram {
	t.Helper()
	p, _, err := corpus.Lookup(name, "")
	if err != nil || p.Bridged == nil {
		t.Fatalf("%s is not a live program: %v", name, err)
	}
	return bridgedProgram{Name: name, Build: p.Bridged}
}

// serialBaseline runs a bridged program under the serial executor with
// SP-bags and a replay-mode depa detector attached, and returns them with
// the run's spawn count.
func serialBaseline(w bridgedProgram) (*spplus.SPBags, *Detector, int) {
	bags := spplus.NewSPBags()
	dep := New()
	res := cilk.Run(progs.CilkProg(w.Build()), cilk.Config{Hooks: cilk.Multi{bags, dep}})
	return bags, dep, res.Spawns
}

// TestLiveSPBagsParity is the live-mode half of the acceptance criterion:
// for every bridged program, running it live on wsrt at 1/2/4/8 workers
// yields verdicts byte-identical to the serial SP-bags baseline —
// including event ordinals, frame numbering and dedup counts, which only
// survive because the walk of the frame logs reproduces the serial
// stream exactly. Its parallel stats are pinned too: the replay
// detector's access and fast-path counts, one shard per worker, and one
// merge per shard plus one per spawned child joined at a sync.
func TestLiveSPBagsParity(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		bags, rep, spawns := serialBaseline(w)
		replay := rep.ParallelStats()
		want := renderReport(bags.Report(), true)
		// The racy variants are named so, and must race.
		if racy := strings.HasSuffix(w.Name, "-racy"); racy == bags.Report().Empty() {
			t.Fatalf("%s: catalogue says racy=%v but SP-bags found %d races",
				w.Name, racy, bags.Report().Distinct())
		}
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/w%d", w.Name, workers)
			live := NewLive()
			live.Run(wsrt.New(workers), w.Build())
			if got := renderReport(live.Report(), true); got != want {
				t.Fatalf("%s: live verdict diverges from serial SP-bags\n--- serial ---\n%s--- live ---\n%s",
					name, want, got)
			}
			want := ParallelStats{
				Workers:      workers,
				ShardMerges:  int64(spawns + workers),
				FastPathHits: replay.FastPathHits,
				Accesses:     replay.Accesses,
			}
			if st := live.ParallelStats(); st != want {
				t.Fatalf("%s: stats = %+v, want %+v", name, st, want)
			}
		}
	}
}

// TestLiveMatchesReplayExactly pins the stronger intra-depa contract: the
// live detector and the replay detector agree on everything, including
// the relation strings.
func TestLiveMatchesReplayExactly(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		_, rep, _ := serialBaseline(w)
		want := renderReport(rep.Report(), false)
		live := NewLive()
		live.Run(wsrt.New(4), w.Build())
		if got := renderReport(live.Report(), false); got != want {
			t.Fatalf("%s: live and replay depa disagree\n--- replay ---\n%s--- live ---\n%s", w.Name, want, got)
		}
	}
}

// TestLiveEventCountsMatchSerial checks that the walked stream has the
// serial stream's exact event population.
func TestLiveEventCountsMatchSerial(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		_, rep, _ := serialBaseline(w)
		want := rep.EventCounts()
		live := NewLive()
		live.Run(wsrt.New(3), w.Build())
		got := live.EventCounts()
		if got.FrameEnters != want.FrameEnters || got.FrameReturns != want.FrameReturns ||
			got.Syncs != want.Syncs || got.Loads != want.Loads || got.Stores != want.Stores {
			t.Fatalf("%s: live stream population diverges: got %+v want %+v", w.Name, got, want)
		}
	}
}

// TestLiveShardMerges checks the sync-boundary merge accounting: every
// spawned child must be merged into its parent exactly once.
func TestLiveShardMerges(t *testing.T) {
	live := NewLive()
	live.Run(wsrt.New(2), lookupBridged(t, "stress").Build())
	st := live.ParallelStats()
	// 255 spawned children in a 256-leaf divide-and-conquer tree, plus
	// the final detection fan-out.
	if st.ShardMerges <= 255 {
		t.Fatalf("shard merges = %d, want > 255", st.ShardMerges)
	}
	if st.FastPathHits == 0 {
		t.Fatal("stress workload produced no fast-path hits")
	}
	// Each leaf's two access bursts coalesce to one entry apiece: 2*(work-1)
	// fast-path hits per leaf against the scattered stores that don't.
	if st.FastPathRate() <= 0.15 {
		t.Fatalf("fast-path rate = %v, want > 0.15 on the stress workload", st.FastPathRate())
	}
}

// TestLiveNeverRun checks that a live detector that never ran reports an
// empty, clean verdict.
func TestLiveNeverRun(t *testing.T) {
	live := NewLive()
	if rp := live.Report(); !rp.Empty() {
		t.Fatalf("never-run live detector reports %d races", rp.Total())
	}
	if ec := live.EventCounts(); ec.FrameEnters != 0 || ec.Loads+ec.Stores != 0 {
		t.Fatalf("never-run live detector counted events: %+v", ec)
	}
}
