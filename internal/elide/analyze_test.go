package elide

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// recordTrace runs prog under spec and returns the encoded v2 trace.
func recordTrace(t testing.TB, prog func(*cilk.Ctx), spec cilk.StealSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// requireMatchesReference checks Analyze against the two-pass reference
// on data, on every 1/37 truncation prefix of it, and on the v1 stream
// each prefix's records form (footerless, so a cut at a record boundary
// analyzes cleanly).
func requireMatchesReference(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := diffAnalyze(data); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	body := data[len(trace.Magic):]
	for i := 0; i < 37; i++ {
		cut := len(data) * i / 37
		if err := diffAnalyze(data[:cut]); err != nil {
			t.Fatalf("%s cut at %d: %v", name, cut, err)
		}
		v1 := append([]byte(trace.MagicV1), body[:len(body)*i/37]...)
		if err := diffAnalyze(v1); err != nil {
			t.Fatalf("%s v1 cut at %d: %v", name, len(v1), err)
		}
	}
}

// TestAnalyzeMatchesReference pins the one-decode classifier to the
// two-pass classifier it replaced: equal audit bytes, ordinal runs in
// both spaces and skip ranges — and identical errors on damaged input —
// over the six apps and hundreds of random reducer programs.
func TestAnalyzeMatchesReference(t *testing.T) {
	specs := []struct {
		tag  string
		spec cilk.StealSpec
	}{{"steal-all", cilk.StealAll{}}, {"no-steals", cilk.NoSteals{}}}
	for _, scale := range []apps.Scale{apps.Test, apps.Small} {
		for _, app := range apps.All() {
			for _, sc := range specs {
				name := fmt.Sprintf("%s@%s/%s", app.Name, scale, sc.tag)
				t.Run(name, func(t *testing.T) {
					inst := app.Build(mem.NewAllocator(), scale)
					requireMatchesReference(t, name, recordTrace(t, inst.Prog, sc.spec))
				})
			}
		}
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 400; seed++ {
			opts := progs.RandomOpts{
				Seed:         seed,
				MaxDepth:     3 + int(seed%5),
				MaxStmts:     5,
				Addrs:        6,
				Reducers:     2,
				MonoidStores: true,
				Reads:        true,
			}
			spec := progs.RandomSpec{Seed: seed ^ 0x5bd1, P: float64(seed%11) / 10}
			data := recordTrace(t, progs.Random(mem.NewAllocator(), opts), spec)
			requireMatchesReference(t, fmt.Sprintf("random/%d", seed), data)
		}
	})
}

// linearRemap is the run-by-run translation remapOrd replaced.
func linearRemap(runs []run, o int64) int64 {
	if o <= 0 {
		return o
	}
	for _, r := range runs {
		if r.start > o {
			break
		}
		o += r.count
	}
	return o
}

// TestRemapOrdMatchesLinear checks the binary-search remap against the
// linear scan at every filtered ordinal of random run sets, including
// adjacent runs, runs at ordinal 1 and empty sets.
func TestRemapOrdMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		var runs []run
		ord := int64(0)
		for n := rng.Intn(40); n > 0; n-- {
			ord += 1 + int64(rng.Intn(4)) // gaps of 0..3 kept ordinals
			for c := 1 + rng.Intn(5); c > 0; c-- {
				runs = refAppendRun(runs, ord)
				ord++
			}
			ord-- // the run's last elided ordinal
		}
		total := ord + int64(rng.Intn(4))
		var elided int64
		for _, r := range runs {
			elided += r.count
		}
		for o := int64(-1); o <= total-elided+2; o++ {
			if got, want := remapOrd(runs, o), linearRemap(runs, o); got != want {
				t.Fatalf("trial %d: remapOrd(%d) = %d, linear scan gives %d (runs %v)", trial, o, got, want, runs)
			}
		}
	}
}

// TestAnalyzeSlotLimit: a trace with more distinct addresses than the
// event log can name fails with a typed budget error instead of letting
// a slot collide with a control-event sentinel.
func TestAnalyzeSlotLimit(t *testing.T) {
	inst := apps.Fib().Build(mem.NewAllocator(), apps.Test)
	data := recordTrace(t, inst.Prog, cilk.StealAll{})
	plan, err := Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Audit().Addresses < 2 {
		t.Fatalf("fib@test touches %d addresses; need at least 2", plan.Audit().Addresses)
	}
	n := uint32(plan.Audit().Addresses)
	_, err = analyze(data, n-1)
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindBudget {
		t.Fatalf("analyze over the slot limit returned %v, want a %v error", err, streamerr.KindBudget)
	}
	if _, err := analyze(data, n); err != nil {
		t.Fatalf("analyze at exactly the slot limit: %v", err)
	}
}
