package depa

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/spbags"
	"repro/internal/trace"
)

// renderReport serializes a report for byte comparison. The Relation
// string is the one field where depa and SP-bags legitimately differ — the
// two algorithms answer "was the prior access parallel" through different
// evidence ("writer parallel" vs "writer in P-bag") — so stripRelation
// masks it; everything else (race set, order, frames, labels, paths,
// addresses, event ordinals, dedup counts) must match byte for byte.
func renderReport(rp *core.Report, stripRelation bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "distinct=%d total=%d\n", rp.Distinct(), rp.Total())
	for _, r := range rp.Races() {
		if stripRelation {
			r.Prov.Relation = ""
		}
		fmt.Fprintf(&b, "%s prov={first=%d second=%d rel=%q}\n",
			r.String(), r.Prov.FirstEvent, r.Prov.SecondEvent, r.Prov.Relation)
	}
	return b.String()
}

func requireParity(t *testing.T, name string, bags *spbags.Detector, dep *Detector) {
	t.Helper()
	want := renderReport(bags.Report(), true)
	got := renderReport(dep.Report(), true)
	if got != want {
		t.Fatalf("%s: depa verdict diverges from SP-bags\n--- sp-bags ---\n%s--- depa ---\n%s", name, want, got)
	}
}

// TestDepaSPBagsParityLive runs every corpus entry under both schedule
// extremes with SP-bags and depa fanned off one event stream and requires
// byte-identical verdicts. The corpus includes reducer programs: both
// detectors are reducer-oblivious replayers consuming exactly the same
// five events, so they must agree there too.
func TestDepaSPBagsParityLive(t *testing.T) {
	for _, e := range corpus.All() {
		for si, spec := range []cilk.StealSpec{cilk.NoSteals{}, cilk.StealAll{}} {
			al := mem.NewAllocator()
			bags := spbags.New()
			dep := New()
			cilk.Run(e.Build(al), cilk.Config{Spec: spec, Hooks: cilk.Multi{bags, dep}})
			requireParity(t, fmt.Sprintf("%s/spec%d", e.Name, si), bags, dep)
		}
	}
}

// TestDepaSPBagsParityRandom widens the live parity sweep to random
// programs, with and without reducer machinery in the stream.
func TestDepaSPBagsParityRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, o := range []progs.RandomOpts{
			{Seed: seed, NoReducers: true},
			{Seed: seed, MonoidStores: true, Reads: true},
		} {
			for _, p := range []float64{0, 0.5, 1} {
				al := mem.NewAllocator()
				prog := progs.Random(al, o)
				bags := spbags.New()
				dep := New()
				spec := progs.RandomSpec{Seed: seed + 9, P: p}
				cilk.Run(prog, cilk.Config{Spec: spec, Hooks: cilk.Multi{bags, dep}})
				requireParity(t, fmt.Sprintf("random seed=%d noRed=%v p=%.1f", seed, o.NoReducers, p), bags, dep)
			}
		}
	}
}

// recordTrace runs prog once with the trace writer attached and returns
// the encoded stream.
func recordTrace(t *testing.T, name string, prog func(*cilk.Ctx), spec cilk.StealSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: w})
	if err := w.Close(); err != nil {
		t.Fatalf("%s: record: %v", name, err)
	}
	return buf.Bytes()
}

// TestDepaSPBagsParityReplay replays recorded traces into both detectors
// — the replay-mode half of the acceptance criterion — and also requires
// that the depa verdict is invariant across shard counts, including shard
// counts that do not divide the page population evenly. Every corpus
// entry fits in one shadow page, so its shards never split work; the
// bridged programs, and dedup at 8,192 chunks, span many pages and make
// the shards divide real work.
func TestDepaSPBagsParityReplay(t *testing.T) {
	type input struct {
		name  string
		build func(al *mem.Allocator) func(*cilk.Ctx)
	}
	var inputs []input
	for _, e := range corpus.All() {
		inputs = append(inputs, input{e.Name, e.Build})
	}
	for _, w := range bridgedPrograms(t) {
		inputs = append(inputs, input{w.Name, func(*mem.Allocator) func(*cilk.Ctx) { return progs.CilkProg(w.Build()) }})
	}
	inputs = append(inputs, input{"dedup-8192", func(al *mem.Allocator) func(*cilk.Ctx) {
		return progs.CilkProg(progs.DedupWorkload(al, 8192, false))
	}})

	widest := 0
	for _, in := range inputs {
		for si, spec := range []cilk.StealSpec{cilk.NoSteals{}, cilk.StealAll{}} {
			name := fmt.Sprintf("%s/spec%d", in.name, si)
			data := recordTrace(t, name, in.build(mem.NewAllocator()), spec)

			bags := spbags.New()
			dep := New()
			if _, err := trace.ReplayAll(data, nil, nil, bags, dep); err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			requireParity(t, name, bags, dep)
			pages := map[uint64]bool{}
			for _, e := range dep.entries {
				pages[uint64(e.addr)>>mem.PageBits] = true
			}
			widest = max(widest, len(pages))

			base := renderReport(dep.Report(), false)
			for _, shards := range []int{1, 2, 3, 4, 8} {
				d2 := New()
				d2.Shards = shards
				if _, err := trace.ReplayAll(data, nil, nil, d2); err != nil {
					t.Fatalf("%s: replay shards=%d: %v", name, shards, err)
				}
				if got := renderReport(d2.Report(), false); got != base {
					t.Fatalf("%s: verdict depends on shard count %d\n--- base ---\n%s--- got ---\n%s",
						name, shards, base, got)
				}
				st := d2.ParallelStats()
				if st.Workers != shards || st.ShardMerges != int64(shards) {
					t.Fatalf("%s: stats = %+v, want workers=shardMerges=%d", name, st, shards)
				}
			}
		}
	}
	if widest <= 8 {
		t.Fatalf("widest input spans %d shadow pages, want more than 8 so the shard counts split real work", widest)
	}
}

// TestDepaSPBagsParityTruncated feeds both detectors every truncation
// prefix of a racy recorded trace: whatever prefix of the stream survives,
// the partial verdicts must still match byte for byte (the degraded-input
// half of the acceptance criterion).
func TestDepaSPBagsParityTruncated(t *testing.T) {
	var entry corpus.Entry
	for _, e := range corpus.All() {
		if e.Name == "oblivious-write-read" {
			entry = e
		}
	}
	if entry.Name == "" {
		t.Fatal("corpus entry oblivious-write-read missing")
	}
	data := recordTrace(t, entry.Name, entry.Build(mem.NewAllocator()), cilk.StealAll{})
	for cut := 0; cut <= len(data); cut += 7 {
		bags := spbags.New()
		dep := New()
		_, errB := trace.ReplayAll(data[:cut], nil, nil, bags)
		_, errD := trace.ReplayAll(data[:cut], nil, nil, dep)
		if (errB == nil) != (errD == nil) {
			t.Fatalf("cut=%d: replay error divergence: sp-bags %v, depa %v", cut, errB, errD)
		}
		requireParity(t, fmt.Sprintf("truncated cut=%d", cut), bags, dep)
	}
}

// TestDepaFastPathStats pins the coalescing fast path: a tight
// strand-local loop must collapse into one log entry while the verdict
// still reflects every access.
func TestDepaFastPathStats(t *testing.T) {
	al := mem.NewAllocator()
	x := al.Alloc("x", 1)
	dep := New()
	cilk.Run(func(c *cilk.Ctx) {
		for i := 0; i < 100; i++ {
			c.Store(x.At(0))
		}
	}, cilk.Config{Hooks: dep})
	if !dep.Report().Empty() {
		t.Fatalf("serial stores raced: %s", dep.Report().Summary())
	}
	st := dep.ParallelStats()
	if st.Accesses != 100 {
		t.Fatalf("accesses = %d, want 100", st.Accesses)
	}
	if st.FastPathHits != 99 {
		t.Fatalf("fast-path hits = %d, want 99", st.FastPathHits)
	}
	if got := st.FastPathRate(); got != 0.99 {
		t.Fatalf("fast-path rate = %v, want 0.99", got)
	}
	if n := len(dep.entries); n != 1 {
		t.Fatalf("log entries = %d, want 1 coalesced run", n)
	}
}
