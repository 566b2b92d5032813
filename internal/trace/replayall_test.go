package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

// allDets returns fresh instances of the paper's three detectors in
// canonical order.
func allDets() []core.Detector {
	return []core.Detector{peerset.New(), spplus.NewSPBags(), spplus.New()}
}

// verdict flattens a detector report into one comparable string: the
// summary plus every race rendered in order.
func verdict(rp *core.Report) string {
	s := rp.Summary()
	for _, r := range rp.Races() {
		s += "\n" + r.String()
	}
	return s
}

// checkSeqVsAll replays data three times sequentially (one reference
// replay per detector) and once through the single-pass engine, and
// demands bit-identical verdicts and event counts.
func checkSeqVsAll(t *testing.T, name string, data []byte) {
	t.Helper()
	seq := allDets()
	var seqN int64
	for i, d := range seq {
		n, err := replayReference(data, d.(cilk.Hooks))
		if err != nil {
			t.Fatalf("%s: sequential replay %d: %v", name, i, err)
		}
		seqN = n
	}
	all := allDets()
	hooks := make([]cilk.Hooks, len(all))
	for i, d := range all {
		hooks[i] = d.(cilk.Hooks)
	}
	n, err := ReplayAll(data, nil, nil, hooks...)
	if err != nil {
		t.Fatalf("%s: single-pass replay: %v", name, err)
	}
	if n != seqN {
		t.Fatalf("%s: single pass replayed %d events, streaming %d", name, n, seqN)
	}
	for i := range seq {
		want, got := verdict(seq[i].Report()), verdict(all[i].Report())
		if want != got {
			t.Fatalf("%s: %s verdicts diverge:\nsequential: %s\nsingle-pass: %s",
				name, seq[i].Name(), want, got)
		}
	}
}

// TestReplayAllBitIdentical drives the single-pass engine over the
// committed fixtures and a grid of programs × schedules and checks every
// detector's verdict against three sequential streaming replays.
func TestReplayAllBitIdentical(t *testing.T) {
	for _, fixture := range []string{
		"../service/testdata/fig1_v2.trace",
		"../service/testdata/fig1_v1.trace",
	} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		checkSeqVsAll(t, fixture, data)
	}

	type pc struct {
		name string
		prog func(*cilk.Ctx)
	}
	al1, al2, al3 := mem.NewAllocator(), mem.NewAllocator(), mem.NewAllocator()
	programs := []pc{
		{"fig1", progs.Fig1(al1, progs.Fig1Options{})},
		{"fig1-early", progs.Fig1(al2, progs.Fig1Options{EarlyGetValue: true})},
		{"fig1-fixed", progs.Fig1(al3, progs.Fig1Options{DeepCopy: true})},
		{"fig2", progs.Fig2Reads(1, 9)},
	}
	specs := []struct {
		name string
		spec cilk.StealSpec
	}{
		{"serial", nil},
		{"steal-all", cilk.StealAll{}},
	}
	for _, p := range programs {
		for _, s := range specs {
			data := traceOf(t, p.prog, s.spec)
			checkSeqVsAll(t, p.name+"/"+s.name, data)
		}
	}

	// Random reducer-heavy programs across schedules.
	for seed := int64(1); seed <= 5; seed++ {
		al := mem.NewAllocator()
		prog := progs.Random(al, progs.RandomOpts{Seed: seed, MonoidStores: true, Reads: true})
		spec := progs.RandomSpec{Seed: seed + 9, P: 0.5, Reduce: cilk.ReduceOrder(seed % 3)}
		data := traceOf(t, prog, spec)
		checkSeqVsAll(t, fmt.Sprintf("random-%d", seed), data)
	}
}

// TestReplayAllSweepCorpus records the §7 specification family of the
// Figure 1 program — the corpus a coverage sweep replays — and checks
// single-pass/sequential parity on every member.
func TestReplayAllSweepCorpus(t *testing.T) {
	factory := func() func(*cilk.Ctx) {
		al := mem.NewAllocator()
		return progs.Fig1(al, progs.Fig1Options{})
	}
	profile := specgen.Measure(factory())
	specs := specgen.All(profile)
	if len(specs) == 0 {
		t.Fatal("empty specification family")
	}
	for i, spec := range specs {
		data := traceOf(t, factory(), spec)
		checkSeqVsAll(t, fmt.Sprintf("spec-%d", i), data)
	}
}

// checkReplayParity replays stream through the reference decoder and
// through ReplayAll, each into a fresh SP+ detector, and demands the same
// replayed-event count and, on failure, the same typed kind and the same
// message byte for byte.
func checkReplayParity(t testing.TB, name string, stream []byte) {
	t.Helper()
	wantN, wantErr := replayReference(stream, spplus.New())
	gotN, gotErr := ReplayAll(stream, nil, nil, spplus.New())
	if wantN != gotN {
		t.Fatalf("%s: events %d (streaming) vs %d (single-pass)", name, wantN, gotN)
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v (streaming) vs %v (single-pass)", name, wantErr, gotErr)
	}
	if wantErr == nil {
		return
	}
	var ws, gs *streamerr.Error
	if !errors.As(wantErr, &ws) || !errors.As(gotErr, &gs) {
		t.Fatalf("%s: untyped error: %v vs %v", name, wantErr, gotErr)
	}
	if ws.Kind != gs.Kind || wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: errors diverge:\nstreaming:   %v\nsingle-pass: %v", name, wantErr, gotErr)
	}
}

// TestReplayAllErrorParity truncates a valid v2 trace at every byte
// position and corrupts it in the classic ways; the single-pass engine
// must fail exactly as the streaming reference does (checkReplayParity).
func TestReplayAllErrorParity(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	for n := 0; n <= len(data); n++ {
		checkReplayParity(t, fmt.Sprintf("prefix-%d", n), data[:n])
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(Magic)+4] ^= 0x01
	checkReplayParity(t, "label-bitflip", corrupt)

	badCount := append([]byte(nil), data...)
	badCount[len(badCount)-1] ^= 0x40
	checkReplayParity(t, "count-corrupt", badCount)

	checkReplayParity(t, "trailing", append(append([]byte(nil), data...), 0x00))
	checkReplayParity(t, "bad-magic", []byte("NOTATRACE!!\n"))
	checkReplayParity(t, "bad-kind", append([]byte(Magic), 0xEE))
	checkReplayParity(t, "unknown-frame", append([]byte(Magic), byte(evSync), 42))

	// v1 prefixes: clean event boundaries must stay clean in both engines.
	v1 := toV1(t, data)
	for n := 0; n <= len(v1); n++ {
		checkReplayParity(t, fmt.Sprintf("v1-prefix-%d", n), v1[:n])
	}
}

// TestReplayAllConsumerPanic: a hook panic surfaces as a typed consumer
// error carrying the event and byte offset it happened at.
func TestReplayAllConsumerPanic(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})
	_, err := ReplayAll(data, nil, nil, panicky{})
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindConsumer {
		t.Fatalf("got %v, want KindConsumer", err)
	}
	if se.Event < 0 || se.Offset < 0 {
		t.Fatalf("consumer error missing position: %v", se)
	}
}

type panicky struct{ cilk.Empty }

func (panicky) Sync(*cilk.Frame) { panic("detector invariant violated") }

// reducerFreeTrace records a program that touches no reducers, so its
// replay exercises only the arena/intern/varint decode paths.
func reducerFreeTrace(t testing.TB) []byte {
	t.Helper()
	al := mem.NewAllocator()
	x := al.Alloc("x", 8)
	prog := func(c *cilk.Ctx) {
		for i := 0; i < 4; i++ {
			c.Spawn("worker", func(cc *cilk.Ctx) {
				cc.Store(x.At(0))
				cc.Load(x.At(1))
				cc.Call("leaf", func(ccc *cilk.Ctx) { ccc.Store(x.At(2)) })
			})
		}
		c.Sync()
		c.Load(x.At(3))
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayPaths are the two ways to drive the decode loop: a caller-held
// engine and the pooled ReplayAll front door. The race detector makes
// sync.Pool drop entries at random, so the pooled path is only measured
// without it.
func replayPaths() map[string]func([]byte) (int64, error) {
	rp := NewReplayer()
	paths := map[string]func([]byte) (int64, error){
		"engine": func(data []byte) (int64, error) { return rp.Replay(data, cilk.Empty{}) },
	}
	if !raceEnabled {
		paths["ReplayAll"] = func(data []byte) (int64, error) { return ReplayAll(data, nil, nil, cilk.Empty{}) }
	}
	return paths
}

// allocsPerReplay warms replay on data, then returns the mean allocation
// count of one further replay and the stream's event count.
func allocsPerReplay(t *testing.T, replay func([]byte) (int64, error), data []byte) (float64, int64) {
	t.Helper()
	var events int64
	for i := 0; i < 2; i++ { // warm the arena, stack, and intern table
		n, err := replay(data)
		if err != nil {
			t.Fatal(err)
		}
		events = n
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := replay(data); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, events
}

// TestReplayAllSteadyStateAllocs pins the tentpole's core claim: once an
// engine is warm, replaying a reducer-free stream performs ZERO
// allocations — no per-event frame churn, no label copies, no buffer
// growth — whether the caller holds the engine or ReplayAll lends it one
// from the pool. The CI allocation-regression step runs this test.
func TestReplayAllSteadyStateAllocs(t *testing.T) {
	data := reducerFreeTrace(t)
	for name, replay := range replayPaths() {
		if allocs, _ := allocsPerReplay(t, replay, data); allocs != 0 {
			t.Fatalf("%s: steady-state decode loop allocates %.2f times per replay, want 0", name, allocs)
		}
	}
}

// TestReplayAllAmortizedAllocs: streams with reducers allocate only for
// the reducer objects themselves (a handful per replay), so the per-event
// amortized allocation count stays far below one.
func TestReplayAllAmortizedAllocs(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{N: 64}), cilk.StealAll{})
	for name, replay := range replayPaths() {
		allocs, events := allocsPerReplay(t, replay, data)
		if perEvent := allocs / float64(events); perEvent > 0.01 {
			t.Fatalf("%s: %.4f allocs/event amortized (%.1f per replay of %d events), want <= 0.01",
				name, perEvent, allocs, events)
		}
	}
}

// BenchmarkReplayAll compares three analysis paths over one Figure 1
// trace: three sequential streaming replays, the single-pass engine
// fanning out to the same three detectors, and the bare decode loop.
// ns/event and allocs/event are reported per sub-benchmark; CI's replay
// floor is the sequential ns/op over the all-detectors ns/op.
func BenchmarkReplayAll(b *testing.B) {
	al := mem.NewAllocator()
	data := traceOf(b, progs.Fig1(al, progs.Fig1Options{N: 256}), cilk.StealAll{})
	events := func() int64 {
		n, err := ReplayAll(data, nil, nil, cilk.Empty{})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}()

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range allDets() {
				if _, err := replayReference(data, d.(cilk.Hooks)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(events)), "ns/event")
	})
	b.Run("all-detectors", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dets := allDets()
			hooks := make([]cilk.Hooks, len(dets))
			for j, d := range dets {
				hooks[j] = d.(cilk.Hooks)
			}
			if _, err := ReplayAll(data, nil, nil, hooks...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(events)), "ns/event")
	})
	b.Run("decode-loop", func(b *testing.B) {
		rp := NewReplayer()
		if _, err := rp.Replay(data, cilk.Empty{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rp.Replay(data, cilk.Empty{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(events)), "ns/event")
	})
}
