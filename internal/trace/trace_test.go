package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/report"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

func TestReplayReproducesSPPlus(t *testing.T) {
	al := mem.NewAllocator()
	prog := progs.Fig1(al, progs.Fig1Options{})

	var buf bytes.Buffer
	tw := NewWriter(&buf)
	live := spplus.New()
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: cilk.Multi{tw, live}})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := spplus.New()
	n, err := ReplayAll(buf.Bytes(), nil, nil, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n != tw.Events() {
		t.Fatalf("replayed %d events, recorded %d", n, tw.Events())
	}
	if live.Report().Summary() != replayed.Report().Summary() {
		t.Fatalf("reports differ:\nlive:    %s\nreplay:  %s",
			live.Report().Summary(), replayed.Report().Summary())
	}
	if replayed.Report().Empty() {
		t.Fatal("the Fig 1 race must survive the round trip")
	}
}

func TestReplayReproducesPeerSet(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	live := peerset.New()
	cilk.Run(progs.Fig2Reads(1, 9), cilk.Config{Hooks: cilk.Multi{tw, live}})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := peerset.New()
	if _, err := ReplayAll(buf.Bytes(), nil, nil, replayed); err != nil {
		t.Fatal(err)
	}
	// The fixture's reducer is quiet-declared, so it replays under a
	// synthetic name; verdicts and participants must still match exactly.
	lr, rr := live.Report(), replayed.Report()
	if lr.Distinct() != rr.Distinct() || lr.Total() != rr.Total() || rr.Empty() {
		t.Fatalf("verdicts differ: live %d/%d, replay %d/%d",
			lr.Distinct(), lr.Total(), rr.Distinct(), rr.Total())
	}
	if lr.Races()[0].First.Frame != rr.Races()[0].First.Frame ||
		lr.Races()[0].Second.Frame != rr.Races()[0].Second.Frame {
		t.Fatal("race participants differ across replay")
	}
}

// TestQuickReplayIdenticalOnRandomPrograms: each bag detector's report
// document is byte-identical live and replayed. The executor reuses frames
// by depth while the replayer keeps every frame, so a detector holding a
// *cilk.Frame past its FrameReturn would diverge here.
func TestQuickReplayIdenticalOnRandomPrograms(t *testing.T) {
	detectors := func() []core.Detector {
		return []core.Detector{peerset.New(), spplus.NewSPBags(), spplus.New()}
	}
	check := func(seed int64, p8 uint8) bool {
		p := float64(p8%4) / 4
		al := mem.NewAllocator()
		prog := progs.Random(al, progs.RandomOpts{Seed: seed, MonoidStores: true, Reads: true})
		spec := progs.RandomSpec{Seed: seed + 9, P: p, Reduce: cilk.ReduceOrder(seed % 3)}

		var buf bytes.Buffer
		tw := NewWriter(&buf)
		live := detectors()
		hooks := cilk.Multi{tw}
		for _, d := range live {
			hooks = append(hooks, asReplayed{Hooks: d, reducers: map[int]*cilk.Reducer{}})
		}
		cilk.Run(prog, cilk.Config{Spec: spec, Hooks: hooks})
		if tw.Close() != nil {
			return false
		}
		replayed := detectors()
		n, err := ReplayAll(buf.Bytes(), nil, nil, replayed[0], replayed[1], replayed[2])
		if err != nil {
			t.Logf("seed %d: replay error: %v", seed, err)
			return false
		}
		for i, d := range live {
			a, errA := report.FromDetector(d.Name(), "", n, d).Marshal()
			b, errB := report.FromDetector(d.Name(), "", n, replayed[i]).Marshal()
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Logf("seed %d: %s differs:\nlive:   %s\nreplay: %s", seed, d.Name(), a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// asReplayed hands its detector each reducer as a replay does: the random
// programs declare reducers quietly, and a trace names such a reducer only
// by its index.
type asReplayed struct {
	cilk.Hooks
	reducers map[int]*cilk.Reducer
}

func (a asReplayed) reducer(r *cilk.Reducer) *cilk.Reducer {
	s, ok := a.reducers[r.Index()]
	if !ok {
		s = cilk.SyntheticReducer(fmt.Sprintf("reducer#%d", r.Index()), r.Index())
		a.reducers[r.Index()] = s
	}
	return s
}

func (a asReplayed) ReducerRead(f *cilk.Frame, r *cilk.Reducer) {
	a.Hooks.ReducerRead(f, a.reducer(r))
}

func (a asReplayed) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	a.Hooks.ViewAwareBegin(f, op, a.reducer(r))
}

func (a asReplayed) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	a.Hooks.ViewAwareEnd(f, op, a.reducer(r))
}

func TestTraceCompactness(t *testing.T) {
	al := mem.NewAllocator()
	prog := progs.Fig1(al, progs.Fig1Options{N: 16})
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(tw.Events())
	if perEvent > 8 {
		t.Fatalf("%.1f bytes/event — format not compact", perEvent)
	}
}

func TestReplayErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		kind streamerr.Kind
	}{
		{"empty", []byte{}, streamerr.KindTruncated},
		{"bad magic", []byte("NOTATRACE!!\n"), streamerr.KindMalformed},
		{"bad kind", append([]byte(Magic), 0xEE), streamerr.KindMalformed},
		{"truncated", append([]byte(Magic), byte(evLoad)), streamerr.KindTruncated},
		{"unknown frm", append([]byte(Magic), byte(evSync), 42), streamerr.KindOrder},
		{"no footer", []byte(Magic), streamerr.KindTruncated},
	}
	for _, tc := range cases {
		_, err := ReplayAll(tc.data, nil, nil, cilk.Empty{})
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *streamerr.Error", tc.name, err)
			continue
		}
		if se.Kind != tc.kind {
			t.Errorf("%s: kind = %v, want %v (err: %v)", tc.name, se.Kind, tc.kind, se)
		}
	}
}

// traceOf records prog under spec and returns the complete v2 trace bytes.
func traceOf(t testing.TB, prog func(*cilk.Ctx), spec cilk.StealSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// toV1 converts a v2 trace to the legacy v1 format: swap the magic and
// strip the 13-byte footer.
func toV1(t *testing.T, data []byte) []byte {
	t.Helper()
	if len(data) < len(Magic)+footerLen || data[len(data)-footerLen] != footerKind {
		t.Fatal("not a complete v2 trace")
	}
	v1 := append([]byte(MagicV1), data[len(Magic):len(data)-footerLen]...)
	return v1
}

func TestReplayV1Compat(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	live := spplus.New()
	if _, err := ReplayAll(data, nil, nil, live); err != nil {
		t.Fatal(err)
	}
	v1 := spplus.New()
	n, err := ReplayAll(toV1(t, data), nil, nil, v1)
	if err != nil {
		t.Fatalf("v1 replay: %v", err)
	}
	if n == 0 || live.Report().Summary() != v1.Report().Summary() {
		t.Fatalf("v1 replay diverged (%d events): v2 %q, v1 %q",
			n, live.Report().Summary(), v1.Report().Summary())
	}
}

func TestReplayDetectsCorruption(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	// Flip one bit inside the root frame's label ("main", starting right
	// after magic + ProgramStart + kind + id varint + length varint). The
	// stream stays structurally decodable — only the CRC footer can tell.
	corrupt := append([]byte(nil), data...)
	corrupt[len(Magic)+4] ^= 0x01
	_, err := ReplayAll(corrupt, nil, nil, cilk.Empty{})
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindCorrupt {
		t.Fatalf("label corruption: got %v, want KindCorrupt", err)
	}
	if se.Offset < 0 {
		t.Fatalf("corruption error carries no byte offset: %v", se)
	}

	// A doctored event count with a matching CRC is impossible to fake by
	// flipping footer bytes (the CRC covers only events), so corrupting the
	// count field alone must also be caught.
	badCount := append([]byte(nil), data...)
	badCount[len(badCount)-1] ^= 0x40
	_, err = ReplayAll(badCount, nil, nil, cilk.Empty{})
	if !errors.As(err, &se) || se.Kind != streamerr.KindCorrupt {
		t.Fatalf("count corruption: got %v, want KindCorrupt", err)
	}

	// Trailing garbage after the footer is corruption, not silently ignored.
	trailing := append(append([]byte(nil), data...), 0x00)
	_, err = ReplayAll(trailing, nil, nil, cilk.Empty{})
	if !errors.As(err, &se) || se.Kind != streamerr.KindCorrupt {
		t.Fatalf("trailing data: got %v, want KindCorrupt", err)
	}
}

func TestReplayTruncationReportsEvent(t *testing.T) {
	data := traceOf(t, progs.Fig2Reads(1, 9), cilk.StealAll{})
	// Cut the stream in half, mid-events.
	cut := data[:len(Magic)+(len(data)-len(Magic))/2]
	n, err := ReplayAll(cut, nil, nil, cilk.Empty{})
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindTruncated {
		t.Fatalf("got %v, want KindTruncated", err)
	}
	if se.Event != n || n == 0 {
		t.Fatalf("truncation at event %d but error names event %d", n, se.Event)
	}
	if se.Offset < 0 {
		t.Fatalf("truncation error carries no byte offset: %v", se)
	}
}

// TestTruncatedTestdata pins the committed fixture CI replays: it must be
// a deterministically truncated v2 trace yielding a well-formed error.
func TestTruncatedTestdata(t *testing.T) {
	data, err := os.ReadFile("testdata/truncated.trace")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := ReplayAll(data, nil, nil, spplus.New())
	var se *streamerr.Error
	if !errors.As(rerr, &se) || se.Kind != streamerr.KindTruncated {
		t.Fatalf("fixture replay: got %v, want KindTruncated", rerr)
	}
}

func TestReplayFrameMetadata(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(func(c *cilk.Ctx) {
		c.Spawn("child", func(cc *cilk.Ctx) {
			cc.Call("leaf", func(*cilk.Ctx) {})
		})
		c.Sync()
	}, cilk.Config{Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var seen []string
	spy := frameSpy{on: func(f *cilk.Frame) {
		seen = append(seen, f.String())
		if f.Label == "leaf" {
			if f.Depth != 2 || f.Spawned || f.Parent == nil || f.Parent.Label != "child" {
				t.Errorf("leaf metadata wrong: %+v", f)
			}
		}
	}}
	if _, err := ReplayAll(buf.Bytes(), nil, nil, spy); err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, " ") != "main#0 child#1 leaf#2" {
		t.Fatalf("frames = %v", seen)
	}
}

type frameSpy struct {
	cilk.Empty
	on func(*cilk.Frame)
}

func (s frameSpy) FrameEnter(f *cilk.Frame) { s.on(f) }

// FuzzReplay feeds arbitrary bytes to ReplayAll, the decoder behind
// rader -replay and raderd's /analyze, and to the streaming reference:
// neither may panic, and both must replay the same number of events and
// fail with the same kind and text (checkReplayParity).
func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(progs.Fig2Reads(1, 9), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	tw.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplayParity(t, "fuzz input", data)
	})
}

// failWriter fails after n bytes, for the latched-error path.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	take := len(p)
	if take > w.n {
		take = w.n
		w.n = 0
		return take, errShort
	}
	w.n -= take
	return take, nil
}

var errShort = bytes.ErrTooLarge

func TestWriterLatchesErrors(t *testing.T) {
	// The writer buffers, so small failures surface at Close (and large
	// streams latch mid-run once the buffer first flushes); either way
	// Close must report the failure and nothing may panic.
	tw := NewWriter(&failWriter{n: 4}) // fails at the first flush
	cilk.Run(progs.Fig2Reads(1), cilk.Config{Hooks: tw})
	if tw.Close() == nil {
		t.Fatal("write failure must surface at Close")
	}
	// A long run overflows the buffer mid-stream; the error latches and
	// subsequent emits are no-ops.
	tw2 := NewWriter(&failWriter{n: 64})
	al := mem.NewAllocator()
	cilk.Run(progs.Fig1(al, progs.Fig1Options{N: 512}), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw2})
	if tw2.Err() == nil {
		t.Fatal("mid-stream failure must latch during the run")
	}
	if tw2.Close() == nil {
		t.Fatal("Close must report the latched failure")
	}
}

// TestReplayEveryTruncation replays a valid trace truncated at every byte
// position. Under v2 the footer makes truncation detectable: ONLY the
// complete trace replays cleanly; every proper prefix must return a typed
// error — never panic, never pass. The same bytes downgraded to v1 (no
// footer) keep the legacy behaviour: prefixes ending on an event boundary
// replay cleanly.
func TestReplayEveryTruncation(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	for n := 0; n < len(data); n++ {
		_, err := ReplayAll(data[:n], nil, nil, spplus.New())
		if err == nil {
			t.Fatalf("v2 prefix of %d/%d bytes replayed cleanly", n, len(data))
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Fatalf("v2 prefix of %d bytes: untyped error %v", n, err)
		}
	}
	if _, err := ReplayAll(data, nil, nil, spplus.New()); err != nil {
		t.Fatalf("full v2 trace must replay cleanly, got %v", err)
	}

	v1 := toV1(t, data)
	clean := 0
	for n := 0; n <= len(v1); n++ {
		if _, err := ReplayAll(v1[:n], nil, nil, spplus.New()); err == nil {
			clean++
		}
	}
	// Every exact event boundary replays cleanly on v1; mid-event
	// prefixes error out. There must be plenty of both.
	if clean < 10 || clean >= len(v1) {
		t.Fatalf("v1 clean prefixes = %d of %d — truncation handling suspicious", clean, len(v1))
	}
}

// BenchmarkTraceWriteReplay measures the trace pipeline's throughput:
// recording overhead per event and replay-into-SP+ cost.
func BenchmarkTraceWriteReplay(b *testing.B) {
	al := mem.NewAllocator()
	prog := progs.Fig1(al, progs.Fig1Options{N: 64})
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			tw := NewWriter(&buf)
			cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
			if err := tw.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("replay-sp+", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			d := spplus.New()
			if _, err := ReplayAll(data, nil, nil, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
