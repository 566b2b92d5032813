package elide_test

import (
	"errors"
	"testing"

	"repro/internal/cilk"
	"repro/internal/elide"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// kindOf extracts the typed stream-fault kind from err, failing the test
// when the error is untyped (or nil): every way of rejecting a damaged
// trace must speak the streamerr vocabulary.
func kindOf(t *testing.T, what string, err error) streamerr.Kind {
	t.Helper()
	var se *streamerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("%s: error %v is not a *streamerr.Error", what, err)
	}
	return se.Kind
}

// FuzzElide is the soundness fuzz target for the static elision pass:
// random reducer programs under random steal schedules must produce
// filtered traces whose verdicts are byte-identical to the full trace
// across every detector (including depa at shard counts 1, 3 and 8 and
// the all-detectors fan-out — requireParity checks all three application
// modes), and Analyze must return the same plan (or error) as the
// two-pass reference classifier. Damaged streams — truncated or
// bit-flipped — must fail with the same typed stream errors whether the
// damage hits the full or the filtered trace, and elide.Analyze must
// reject them exactly as a plain replay would.
func FuzzElide(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, byte(seed*41), uint8(seed))
	}
	// Deep nesting plus a high steal probability: multi-word fork paths.
	f.Add(int64(1)<<40+99, byte(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, pByte byte, depthSel uint8) {
		opts := progs.RandomOpts{
			Seed:         seed,
			MaxDepth:     3 + int(depthSel%5), // 3..7
			MaxStmts:     5,
			Addrs:        6,
			Reducers:     2,
			MonoidStores: true,
			Reads:        true,
		}
		spec := progs.RandomSpec{Seed: seed ^ 0x7a3e, P: float64(pByte) / 255}
		al := mem.NewAllocator()
		data := record(t, progs.Random(al, opts), spec)
		requireParity(t, "fuzz", data)
		if t.Failed() {
			return
		}
		if err := elide.DiffAnalyze(data); err != nil {
			t.Fatalf("Analyze differs from the two-pass reference: %v", err)
		}

		plan, err := elide.Analyze(data)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		filtered, _, err := plan.Filter(data)
		if err != nil {
			t.Fatalf("filter: %v", err)
		}

		// Truncation: cutting the final byte beheads the footer of full
		// and filtered stream alike; both must fail with the same typed
		// kind, and Analyze must reject the damage exactly like a replay.
		_, fullErr := trace.ReplayAll(data[:len(data)-1], nil, nil, cilk.Empty{})
		fullKind := kindOf(t, "truncated full replay", fullErr)
		_, filtErr := trace.ReplayAll(filtered[:len(filtered)-1], nil, nil, cilk.Empty{})
		if filtKind := kindOf(t, "truncated filtered replay", filtErr); filtKind != fullKind {
			t.Fatalf("truncated filtered trace fails with kind %v, full trace with %v", filtKind, fullKind)
		}
		if _, err := elide.Analyze(data[:len(data)-1]); kindOf(t, "analyze truncated", err) != fullKind {
			t.Fatalf("Analyze rejects truncation with a different kind than replay: %v vs %v", err, fullErr)
		}
		if err := elide.DiffAnalyze(data[:len(data)/2]); err != nil {
			t.Fatalf("truncated: Analyze differs from the two-pass reference: %v", err)
		}
		if _, _, err := plan.Filter(data[:len(data)-1]); kindOf(t, "filter truncated", err) != fullKind {
			t.Fatalf("Filter rejects truncation with a different kind than replay: %v vs %v", err, fullErr)
		}

		// Corruption: flip a byte in each stream's event body. The exact
		// kind depends on which record the flip lands in, but both streams
		// must reject the damage with a typed error — a corrupt filtered
		// trace must never launder into a clean verdict.
		corrupt := func(what string, stream []byte) {
			mod := append([]byte(nil), stream...)
			mod[len(trace.Magic)+(len(mod)-len(trace.Magic))/2] ^= 0xff
			if _, err := trace.ReplayAll(mod, nil, nil, cilk.Empty{}); err == nil {
				t.Fatalf("%s: bit-flipped stream replayed clean", what)
			} else {
				kindOf(t, what+" replay", err)
			}
			if _, err := elide.Analyze(mod); err == nil {
				t.Fatalf("%s: Analyze accepted a bit-flipped stream", what)
			} else {
				kindOf(t, what+" analyze", err)
			}
			if err := elide.DiffAnalyze(mod); err != nil {
				t.Fatalf("%s: Analyze differs from the two-pass reference: %v", what, err)
			}
		}
		corrupt("full", data)
		corrupt("filtered", filtered)
	})
}
