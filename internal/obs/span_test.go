package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	outer := tr.Start("outer")
	inner := tr.Start("inner").Arg("n", 3)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Deterministic order: outer started first.
	if spans[0].Name != "outer" || spans[1].Name != "inner" {
		t.Fatalf("span order %q, %q", spans[0].Name, spans[1].Name)
	}
	o, i := spans[0], spans[1]
	if i.Start < o.Start || i.Start+i.Dur > o.Start+o.Dur {
		t.Fatalf("inner [%v,%v] not contained in outer [%v,%v]",
			i.Start, i.Start+i.Dur, o.Start, o.Start+o.Dur)
	}
	if i.Dur < time.Millisecond {
		t.Fatalf("inner duration %v under the slept millisecond", i.Dur)
	}
	if len(i.Args) != 1 || i.Args[0].Key != "n" {
		t.Fatalf("inner args %v", i.Args)
	}
}

func TestTraceConcurrentLanes(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.StartTID(w, "work").End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 200 {
		t.Fatalf("got %d spans, want 200", got)
	}
}

// TestNilTraceAllocs pins the nil-sink fast path: instrumented code calls
// Start/Arg/End unconditionally, and with no trace attached the whole
// chain must not allocate.
func TestNilTraceAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartTID(1, "hot")
		sp.Arg("k", 1)
		sp.End()
		tr.emit(SpanRecord{})
		_ = tr.Spans()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span path allocates %.2f/op, want 0", allocs)
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("replay").Arg("events", 123).Arg("bytes", 456)
	tr.Start("detector:sp+").End()
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		if ev.Ph != "X" || ev.PID != 1 || ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
	rp := doc.TraceEvents[byName["replay"]]
	if rp.Args["events"] != float64(123) || rp.Args["bytes"] != float64(456) {
		t.Fatalf("replay args %v", rp.Args)
	}
}

// WriteChrome on a nil trace emits an empty, still-valid document.
func TestWriteChromeNil(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}
