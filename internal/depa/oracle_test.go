package depa

import (
	"testing"
	"testing/quick"

	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/progs"
)

// equal reports whether a and b name the same strand.
func equal(a, b Timestamp) bool {
	if a.depth != b.depth || a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// accessTimestamps expands the detector's (coalesced) access log into one
// timestamp per instrumented access, in serial event order — the k-th
// element corresponds to the k-th Load/Store of the run, which is exactly
// dag.Recorder's Acc[k] on the same run.
func accessTimestamps(d *Detector) []Timestamp {
	var out []Timestamp
	for _, e := range d.entries {
		for i := int32(0); i < e.count; i++ {
			out = append(out, d.strands[e.strand].ts)
		}
	}
	return out
}

// checkOracleEquivalence runs prog under spec with the dag recorder and a
// depa detector fanned off one event stream, then asserts that the two
// oracles agree on the SP relation of every pair of accesses: Parallel,
// Precedes in both directions, and mutual exclusion of the three
// relations.
func checkOracleEquivalence(t *testing.T, name string, prog func(*cilk.Ctx), spec cilk.StealSpec) {
	t.Helper()
	rec := dag.NewRecorder()
	det := New()
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: cilk.Multi{rec, det}})

	ts := accessTimestamps(det)
	acc := rec.D.Acc
	if len(ts) != len(acc) {
		t.Fatalf("%s: depa saw %d accesses, dag recorder %d", name, len(ts), len(acc))
	}
	for i := 0; i < len(acc); i++ {
		for j := i + 1; j < len(acc); j++ {
			si, sj := acc[i].Strand, acc[j].Strand
			if si == sj {
				if !equal(ts[i], ts[j]) {
					t.Fatalf("%s: accesses %d,%d share dag strand %d but timestamps differ: %v vs %v",
						name, i, j, si, ts[i], ts[j])
				}
				continue
			}
			wantPar := rec.D.Parallel(si, sj)
			if got := Parallel(ts[i], ts[j]); got != wantPar {
				t.Fatalf("%s: accesses %d,%d (strands %d,%d): depa Parallel=%v, dag=%v (%v vs %v)",
					name, i, j, si, sj, got, wantPar, ts[i], ts[j])
			}
			wantPrec := rec.D.Precedes(si, sj)
			if got := Precedes(ts[i], ts[j]); got != wantPrec {
				t.Fatalf("%s: accesses %d,%d (strands %d,%d): depa Precedes=%v, dag=%v (%v vs %v)",
					name, i, j, si, sj, got, wantPrec, ts[i], ts[j])
			}
			wantRev := rec.D.Precedes(sj, si)
			if got := Precedes(ts[j], ts[i]); got != wantRev {
				t.Fatalf("%s: accesses %d,%d (strands %d,%d): depa reverse Precedes=%v, dag=%v (%v vs %v)",
					name, i, j, si, sj, got, wantRev, ts[j], ts[i])
			}
			n := 0
			for _, v := range []bool{wantPar, wantPrec, wantRev} {
				if v {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%s: accesses %d,%d: SP relations not mutually exclusive (par=%v prec=%v rev=%v)",
					name, i, j, wantPar, wantPrec, wantRev)
			}
		}
	}
}

// TestOracleCorpusEquivalence sweeps the reducer-free corpus entries: on
// those programs the dag is the pure SP dag of the program, and the depa
// timestamps must reproduce its relations exactly under every schedule.
func TestOracleCorpusEquivalence(t *testing.T) {
	for _, e := range corpus.All() {
		if !e.Oblivious {
			continue
		}
		for _, spec := range []cilk.StealSpec{cilk.NoSteals{}, cilk.StealAll{}} {
			al := mem.NewAllocator()
			checkOracleEquivalence(t, e.Name, e.Build(al), spec)
		}
	}
}

// TestQuickOracleEquivalence property-tests the oracle contract on random
// reducer-free programs across schedules.
func TestQuickOracleEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		for _, p := range []float64{0, 0.5, 1} {
			al := mem.NewAllocator()
			prog := progs.Random(al, progs.RandomOpts{Seed: seed, NoReducers: true})
			spec := progs.RandomSpec{Seed: seed + 3, P: p}
			checkOracleEquivalence(t, "random", prog, spec)
			if t.Failed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeepOracleEquivalence stresses deeper spawn nesting so fork
// paths spill across multiple graduation words.
func TestQuickDeepOracleEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		al := mem.NewAllocator()
		prog := progs.Random(al, progs.RandomOpts{
			Seed: seed, NoReducers: true, MaxDepth: 9, MaxStmts: 4, Addrs: 4,
		})
		checkOracleEquivalence(t, "deep-random", prog, cilk.NoSteals{})
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
