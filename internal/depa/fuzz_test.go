package depa

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/spplus"
)

// FuzzDepaOracle cross-validates the three authorities on fuzzer-chosen
// programs and schedules. The fuzzer picks a generator seed, a steal
// probability and a nesting budget; for the resulting program it asserts
// (a) the depa timestamps reproduce the dag oracle's SP relations for
// every pair of accesses — Parallel, Precedes both ways, mutual
// exclusion — and (b) the depa verdict agrees with SP-bags'
// byte for byte (modulo the relation wording the two provenance styles
// use). The explicit seeds cover the depths at which fork paths cross
// graduation-word boundaries; the fuzzer explores everything in between.
func FuzzDepaOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, byte(seed*36), uint8(seed))
	}
	// A large seed plus the deepest nesting budget: multi-word paths.
	f.Add(int64(1)<<40+12345, byte(255), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, pByte byte, depthSel uint8) {
		opts := progs.RandomOpts{
			Seed:       seed,
			NoReducers: true,
			MaxDepth:   3 + int(depthSel%7), // 3..9: up to multi-word fork paths
			MaxStmts:   5,
			Addrs:      6,
		}
		spec := progs.RandomSpec{Seed: seed ^ 0x5bf0, P: float64(pByte) / 255}

		al := mem.NewAllocator()
		checkOracleEquivalence(t, "fuzz", progs.Random(al, opts), spec)
		if t.Failed() {
			return
		}

		// Verdict agreement: rebuild the same program over a fresh
		// allocator (identical address stream) and feed one serial run to
		// SP-bags and a fresh depa detector side by side.
		al2 := mem.NewAllocator()
		bags := spplus.NewSPBags()
		dep := New()
		cilk.Run(progs.Random(al2, opts), cilk.Config{Spec: spec, Hooks: cilk.Multi{bags, dep}})
		requireParity(t, "fuzz", bags, dep)
	})
}
