package obs

import (
	"sort"
	"sync"
	"time"
)

// Arg is one key/value annotation on a span: event counts, byte totals,
// race tallies. Values should be strings or numbers so the Chrome export
// renders them directly.
type Arg struct {
	Key   string
	Value any
}

// SpanRecord is one finished span: a named interval on a lane (TID),
// positioned by monotonic time since the owning Trace started. Span trees
// are implicit: a span whose interval contains another's on the same lane
// is its ancestor, which is exactly how Chrome's trace viewer nests
// complete events.
type SpanRecord struct {
	Name  string
	TID   int
	Start time.Duration
	Dur   time.Duration
	Args  []Arg
}

// Trace collects spans with monotonic timing. The zero value is NOT the
// off switch — a nil *Trace is: every method on a nil *Trace (and on the
// nil *Span it hands out) is a no-op, so instrumented code calls
// Start/End unconditionally and a disabled pipeline pays two predicted
// branches and zero allocations per would-be span.
//
// A Trace is safe for concurrent use; parallel phases (the sweep's
// workers) record on distinct lanes via StartTID.
type Trace struct {
	t0 time.Time

	mu    sync.Mutex
	spans []SpanRecord
	ctx   SpanContext
}

// NewTrace returns a collecting trace whose clock starts now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// SetContext attaches a distributed-trace identity to the trace — either
// a freshly minted root (the client side) or a context extracted from an
// incoming traceparent header (the server side). No-op on nil.
func (t *Trace) SetContext(c SpanContext) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ctx = c
	t.mu.Unlock()
}

// Context returns the trace's distributed identity (zero when none was
// set, and on a nil trace).
func (t *Trace) Context() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctx
}

// T0 returns the wall-clock instant the trace's monotonic clock started,
// the anchor for aligning span trees recorded by different processes.
// Zero on a nil trace.
func (t *Trace) T0() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

// Span is an open interval handle. End finishes it; Arg annotates it.
// Methods on a nil *Span are no-ops (the nil-sink fast path).
type Span struct {
	tr    *Trace
	name  string
	tid   int
	start time.Duration
	args  []Arg
}

// Start opens a span on lane 0.
func (t *Trace) Start(name string) *Span { return t.StartTID(0, name) }

// StartTID opens a span on the given lane. Lanes separate concurrent
// phases so containment-based nesting stays well-defined.
func (t *Trace) StartTID(tid int, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, tid: tid, start: time.Since(t.t0)}
}

// Arg annotates the span, returning it for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Value: value})
	return s
}

// End closes the span and records it on the owning trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.emit(SpanRecord{
		Name: s.name, TID: s.tid,
		Start: s.start, Dur: time.Since(s.tr.t0) - s.start,
		Args: s.args,
	})
}

// emit appends a finished record.
func (t *Trace) emit(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Spans returns a copy of the finished spans ordered by (start, lane,
// name) — deterministic for tests even when parallel lanes finish in a
// racy order.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Name < out[j].Name
	})
	return out
}
