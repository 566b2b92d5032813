package faults_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cilk"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/spplus"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// record runs prog under spec and returns the trace bytes plus the total
// event count a replay delivers.
func record(t *testing.T, prog func(*cilk.Ctx), spec cilk.StealSpec) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := trace.ReplayAll(buf.Bytes(), nil, nil, cilk.Empty{})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// eventIndexOf replays data into a spy and returns the 0-based hook-call
// index at which FrameEnter(label) is delivered.
func eventIndexOf(t *testing.T, data []byte, label string) int64 {
	t.Helper()
	idx := int64(-1)
	var n int64
	spy := &countingSpy{on: func(f *cilk.Frame) {
		if f.Label == label && idx < 0 {
			idx = n
		}
	}, n: &n}
	if _, err := trace.ReplayAll(data, nil, nil, spy); err != nil {
		t.Fatal(err)
	}
	if idx < 0 {
		t.Fatalf("no FrameEnter(%q) in trace", label)
	}
	return idx
}

// countingSpy counts every hook call via a faults.Injector wrapped around
// an Empty consumer, observing FrameEnter along the way.
type countingSpy struct {
	cilk.Empty
	on func(*cilk.Frame)
	n  *int64
}

func (s *countingSpy) ProgramStart(f *cilk.Frame)                                    { *s.n++ }
func (s *countingSpy) ProgramEnd(f *cilk.Frame)                                      { *s.n++ }
func (s *countingSpy) FrameEnter(f *cilk.Frame)                                      { s.on(f); *s.n++ }
func (s *countingSpy) FrameReturn(g, f *cilk.Frame)                                  { *s.n++ }
func (s *countingSpy) Sync(f *cilk.Frame)                                            { *s.n++ }
func (s *countingSpy) ContinuationStolen(f *cilk.Frame, v cilk.ViewID)               { *s.n++ }
func (s *countingSpy) ReduceStart(f *cilk.Frame, k, d cilk.ViewID)                   { *s.n++ }
func (s *countingSpy) ReduceEnd(f *cilk.Frame)                                       { *s.n++ }
func (s *countingSpy) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) { *s.n++ }
func (s *countingSpy) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer)   { *s.n++ }
func (s *countingSpy) ReducerCreate(f *cilk.Frame, r *cilk.Reducer)                  { *s.n++ }
func (s *countingSpy) ReducerRead(f *cilk.Frame, r *cilk.Reducer)                    { *s.n++ }
func (s *countingSpy) Load(f *cilk.Frame, a mem.Addr)                                { *s.n++ }
func (s *countingSpy) Store(f *cilk.Frame, a mem.Addr)                               { *s.n++ }

// TestFaultVerdictTable pins the exact verdict each fault class draws from
// Peer-Set when aimed at the FrameEnter of a spawned child: structural
// faults are caught as ordering violations, truncation is harmless (the
// detector just never finalizes), and a panicking consumer surfaces as
// KindConsumer. The trace is a two-frame program, so every index is known.
func TestFaultVerdictTable(t *testing.T) {
	data, _ := record(t, func(c *cilk.Ctx) {
		c.Spawn("a", func(*cilk.Ctx) {})
		c.Sync()
	}, nil)
	at := eventIndexOf(t, data, "a")

	cases := []struct {
		fault faults.FaultKind
		want  streamerr.Kind // KindConsumer/KindOrder; -1 = harmless
		none  bool
	}{
		{fault: faults.Drop, want: streamerr.KindOrder},
		{fault: faults.Duplicate, want: streamerr.KindOrder},
		{fault: faults.CorruptKind, want: streamerr.KindOrder},
		{fault: faults.Truncate, none: true},
		{fault: faults.ConsumerPanic, want: streamerr.KindConsumer},
	}
	for _, tc := range cases {
		inj := faults.New(peerset.New(), faults.Plan{Kind: tc.fault, At: at})
		_, err := trace.ReplayAll(data, nil, nil, inj)
		if !inj.Injected() {
			t.Errorf("%v@%d: fault did not fire", tc.fault, at)
			continue
		}
		if tc.none {
			if err != nil {
				t.Errorf("%v@%d: want harmless, got %v", tc.fault, at, err)
			}
			continue
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Errorf("%v@%d: want *streamerr.Error, got %v", tc.fault, at, err)
			continue
		}
		if se.Kind != tc.want {
			t.Errorf("%v@%d: kind = %v, want %v (err: %v)", tc.fault, at, se.Kind, tc.want, se)
		}
		if se.Event < 0 {
			t.Errorf("%v@%d: error carries no event index: %v", tc.fault, at, se)
		}
	}
}

// bagDetectors are the three detectors that keep per-frame bags, with
// the layer their typed errors carry.
var bagDetectors = []struct {
	name, layer string
	mk          func() cilk.Hooks
}{
	{"peer-set", "peerset", func() cilk.Hooks { return peerset.New() }},
	{"sp-bags", "sp-bags", func() cilk.Hooks { return spplus.NewSPBags() }},
	{"sp+", "spplus", func() cilk.Hooks { return spplus.New() }},
}

// TestDroppedSyncBeforeReturn pins the one fault that would let a frame
// return with a non-empty bag: the frame's own Sync is lost. g spawns a
// and then calls b, so at g's return Peer-Set's SP bag holds b, and the
// P bags of SP-bags and SP+ hold a. Each detector must reject the return
// with a KindState error from its own layer.
func TestDroppedSyncBeforeReturn(t *testing.T) {
	data, _ := record(t, func(c *cilk.Ctx) {
		c.Call("g", func(g *cilk.Ctx) {
			g.Spawn("a", func(*cilk.Ctx) {})
			g.Call("b", func(*cilk.Ctx) {})
		})
	}, nil)
	at := syncIndexOf(t, data, "g")
	for _, det := range bagDetectors {
		inj := faults.New(det.mk(), faults.Plan{Kind: faults.Drop, At: at})
		_, err := trace.ReplayAll(data, nil, nil, inj)
		if !inj.Injected() {
			t.Fatalf("%s: drop@%d did not fire", det.name, at)
		}
		var se *streamerr.Error
		if !errors.As(err, &se) || se.Kind != streamerr.KindState {
			t.Errorf("%s: want a KindState *streamerr.Error, got %v", det.name, err)
		} else if se.Layer != det.layer {
			t.Errorf("%s: error layer = %q, want %q (%v)", det.name, se.Layer, det.layer, err)
		}
	}
}

// syncIndexOf returns the 0-based hook-call index of the last Sync of the
// frame labelled label.
func syncIndexOf(t *testing.T, data []byte, label string) int64 {
	t.Helper()
	spy := &syncSpy{label: label, at: -1}
	if _, err := trace.ReplayAll(data, nil, nil, spy); err != nil {
		t.Fatal(err)
	}
	if spy.at < 0 {
		t.Fatalf("no Sync of %q in trace", label)
	}
	return spy.at
}

// syncSpy records the index of the last Sync of one labelled frame. It
// counts only control events, which is every event of a trace without
// memory accesses or reducers.
type syncSpy struct {
	cilk.Empty
	label string
	n, at int64
}

func (s *syncSpy) ProgramStart(*cilk.Frame)     { s.n++ }
func (s *syncSpy) ProgramEnd(*cilk.Frame)       { s.n++ }
func (s *syncSpy) FrameEnter(*cilk.Frame)       { s.n++ }
func (s *syncSpy) FrameReturn(_, _ *cilk.Frame) { s.n++ }
func (s *syncSpy) Sync(f *cilk.Frame) {
	if f.Label == s.label {
		s.at = s.n
	}
	s.n++
}

// TestEveryFaultEveryDetector is the pipeline's robustness acceptance
// property: every fault class, injected at seeded stream positions into
// each of the three detectors during replay of a reducer-heavy trace, must
// yield either a nil error (provably harmless) or a structured
// *streamerr.Error — never an unrecovered panic, never a crash.
func TestEveryFaultEveryDetector(t *testing.T) {
	al := mem.NewAllocator()
	data, total := record(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	plans := faults.Plans(1, 10*int(faults.NumKinds), total)
	for _, det := range bagDetectors {
		for _, plan := range plans {
			inj := faults.New(det.mk(), plan)
			_, err := trace.ReplayAll(data, nil, nil, inj)
			if err == nil {
				continue // provably harmless: clean replay despite the fault
			}
			var se *streamerr.Error
			if !errors.As(err, &se) {
				t.Fatalf("%s under %v: untyped error %v", det.name, plan, err)
			}
			if plan.Kind == faults.ConsumerPanic && inj.Injected() && se.Kind != streamerr.KindConsumer {
				t.Fatalf("%s under %v: consumer panic surfaced as %v, want KindConsumer", det.name, plan, se)
			}
		}
	}
}

// TestSweepSurvivesPoisonedSpec drives the acceptance requirement on the
// §7 sweep: with faults injected into ONE specification's run via the Wrap
// seam, the sweep reports that unit in Failures and still returns results
// for every other specification — the process neither crashes nor discards
// the sweep.
func TestSweepSurvivesPoisonedSpec(t *testing.T) {
	factory := func() func(*cilk.Ctx) {
		return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{DeepCopy: true})
	}
	// Unpoisoned baseline: fig1-fixed is race-free and the sweep completes.
	base := rader.Sweep(factory, rader.SweepOptions{})
	if !base.Clean() || !base.Complete() || base.SpecsRun < 2 {
		t.Fatalf("baseline sweep: clean=%v complete=%v specs=%d",
			base.Clean(), base.Complete(), base.SpecsRun)
	}

	// Every fault class is aimed at event 1 (the root FrameEnter) of one
	// specification's run. Structural faults there (a dropped, duplicated
	// or kind-corrupted root enter) and a crashing consumer must surface
	// as exactly one typed failure; a fault the detector provably absorbs
	// (truncation just stops the stream) must leave the sweep complete.
	// Either way every other specification still reports.
	mustFail := map[faults.FaultKind]bool{
		faults.Drop:          true,
		faults.CorruptKind:   true,
		faults.ConsumerPanic: true,
	}
	for kind := faults.FaultKind(0); kind < faults.NumKinds; kind++ {
		cr := rader.Sweep(factory, rader.SweepOptions{
			Wrap: func(index int, spec cilk.StealSpec, hooks cilk.Hooks) cilk.Hooks {
				if index != 1 {
					return hooks
				}
				return faults.New(hooks, faults.Plan{Kind: kind, At: 1})
			},
		})
		if cr.ViewReads == nil {
			t.Fatalf("%v: ViewReads lost", kind)
		}
		if len(cr.Failures) == 0 {
			if mustFail[kind] {
				t.Fatalf("%v: structural fault went undetected", kind)
			}
			if cr.SpecsRun != base.SpecsRun || !cr.Complete() {
				t.Fatalf("%v: harmless fault lost specs: ran %d of %d", kind, cr.SpecsRun, base.SpecsRun)
			}
			continue
		}
		if len(cr.Failures) != 1 {
			t.Fatalf("%v: failures = %v, want exactly 1", kind, cr.Failures)
		}
		var se *streamerr.Error
		if !errors.As(cr.Failures[0].Err, &se) {
			t.Fatalf("%v: failure is untyped: %v", kind, cr.Failures[0].Err)
		}
		if kind == faults.ConsumerPanic && se.Kind != streamerr.KindConsumer {
			t.Fatalf("%v: consumer panic surfaced as %v", kind, se)
		}
		if cr.SpecsRun != base.SpecsRun-1 {
			t.Fatalf("%v: specs run = %d, want %d (all but the poisoned one)",
				kind, cr.SpecsRun, base.SpecsRun-1)
		}
		if cr.Complete() {
			t.Fatalf("%v: sweep with a failure reports Complete", kind)
		}
	}
}

// TestPlansDeterministic pins that plan generation never consults global
// state: equal seeds yield equal plans, distinct seeds vary the indices.
func TestPlansDeterministic(t *testing.T) {
	a := faults.Plans(7, 20, 100)
	b := faults.Plans(7, 20, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs across identical calls: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != 20 {
		t.Fatalf("got %d plans, want 20", len(a))
	}
	kinds := map[faults.FaultKind]bool{}
	for _, p := range a {
		kinds[p.Kind] = true
		if p.At < 0 || p.At >= 100 {
			t.Fatalf("plan %v out of range", p)
		}
	}
	if len(kinds) != int(faults.NumKinds) {
		t.Fatalf("plans cover %d kinds, want %d", len(kinds), faults.NumKinds)
	}
}
