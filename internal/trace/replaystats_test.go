package trace

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

// TestReplayStats checks ReplayAll's accounting against its plain
// replay: same event count, byte count matching the stream, and
// per-class counts summing to the total.
func TestReplayStats(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), cilk.StealAll{})

	n0, err := ReplayAll(data, nil, nil, cilk.Empty{})
	if err != nil {
		t.Fatal(err)
	}

	var st ReplayStats
	n, err := ReplayAll(data, nil, &st, cilk.Empty{})
	if err != nil {
		t.Fatal(err)
	}
	if n != n0 || st.Events != n0 {
		t.Fatalf("events: plain %d, with stats %d, ReplayStats %d", n0, n, st.Events)
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, stream is %d bytes", st.Bytes, len(data))
	}
	if st.Frames <= 0 || st.ArenaChunks <= 0 || st.InternedLabels <= 0 {
		t.Fatalf("empty pool accounting: %+v", st)
	}
	var sum int64
	for class, c := range st.Classes {
		if c <= 0 {
			t.Fatalf("class %q has non-positive count %d", class, c)
		}
		sum += c
	}
	if sum != st.Events {
		t.Fatalf("class counts sum to %d, events %d", sum, st.Events)
	}
	for _, want := range []string{"frame-enter-spawn", "frame-return", "sync", "steal", "reducer-read"} {
		if st.Classes[want] == 0 {
			t.Fatalf("fig1 under steal-all decoded no %q events: %v", want, st.Classes)
		}
	}
}

// A truncated stream still reports what was decoded before the error.
func TestReplayStatsTruncated(t *testing.T) {
	al := mem.NewAllocator()
	data := traceOf(t, progs.Fig1(al, progs.Fig1Options{}), nil)
	cut := data[:len(data)-10]

	var st ReplayStats
	if _, err := ReplayAll(cut, nil, &st, cilk.Empty{}); err == nil {
		t.Fatal("truncated stream replayed without error")
	}
	if st.Events == 0 || st.Classes["frame-enter-spawn"] == 0 {
		t.Fatalf("truncated replay reported no accounting: %+v", st)
	}
}
