package depa

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/progs"
	"repro/internal/spbags"
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
// SP-bags and a replay-mode depa detector attached.
func serialBaseline(w bridgedProgram) (*spbags.Detector, *Detector) {
	bags := spbags.New()
	dep := New()
	cilk.Run(progs.CilkProg(w.Build()), cilk.Config{Hooks: cilk.Multi{bags, dep}})
	return bags, dep
}

// TestLiveSPBagsParity is the live-mode half of the acceptance criterion:
// for every bridged program, running it live on wsrt at 1/2/4/8 workers
// (both deque implementations) yields verdicts byte-identical to the
// serial SP-bags baseline — including event ordinals, frame numbering and
// dedup counts, which only survive because the finalize step reconstructs
// the canonical serial stream exactly.
func TestLiveSPBagsParity(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		bags, _ := serialBaseline(w)
		want := renderReport(bags.Report(), true)
		// The racy variants are named so, and must race.
		if racy := strings.HasSuffix(w.Name, "-racy"); racy == bags.Report().Empty() {
			t.Fatalf("%s: catalogue says racy=%v but SP-bags found %d races",
				w.Name, racy, bags.Report().Distinct())
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, lockFree := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/lockfree=%v", w.Name, workers, lockFree)
				live := NewLive()
				rt := wsrt.New(workers)
				if lockFree {
					rt = wsrt.NewLockFree(workers)
				}
				live.Run(rt, w.Build())
				if got := renderReport(live.Report(), true); got != want {
					t.Fatalf("%s: live verdict diverges from serial SP-bags\n--- serial ---\n%s--- live ---\n%s",
						name, want, got)
				}
				st := live.ParallelStats()
				if st.Workers != workers {
					t.Fatalf("%s: stats.Workers = %d, want %d", name, st.Workers, workers)
				}
				if st.Accesses == 0 {
					t.Fatalf("%s: no accesses observed", name)
				}
			}
		}
	}
}

// TestLiveMatchesReplayExactly pins the stronger intra-depa contract: the
// live detector and the replay detector agree on everything, including
// the relation strings.
func TestLiveMatchesReplayExactly(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		_, rep := serialBaseline(w)
		want := renderReport(rep.Report(), false)
		live := NewLive()
		live.Run(wsrt.New(4), w.Build())
		if got := renderReport(live.Report(), false); got != want {
			t.Fatalf("%s: live and replay depa disagree\n--- replay ---\n%s--- live ---\n%s", w.Name, want, got)
		}
	}
}

// TestLiveEventCountsMatchSerial checks that the reconstructed canonical
// stream has the serial stream's exact event population.
func TestLiveEventCountsMatchSerial(t *testing.T) {
	for _, w := range bridgedPrograms(t) {
		_, rep := serialBaseline(w)
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
