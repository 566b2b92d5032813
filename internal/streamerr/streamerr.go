// Package streamerr defines the single structured error type the analysis
// pipeline uses to report violations of the cilk event-stream contract.
//
// The detectors (peer-set, sp-bags, sp+), the dag recorder and the serial
// executor validate the event contract as they consume the stream. A live
// execution can never violate the contract, so the validation failure mode
// is a panic — but the panic *value* is always a *streamerr.Error, never a
// bare string. Recovery points (trace.ReplayAll, rader.Run, the rader
// sweep workers) translate that panic value back into an ordinary error
// carrying the layer that detected the fault, the event index, the
// offending frame and, for byte-level trace faults, the stream offset.
// Anything else that escapes as a panic — a crashing downstream consumer,
// a runtime fault in a detector driven off contract — is wrapped with
// KindConsumer so callers always observe one error type and the process
// never dies.
//
// This package sits below internal/cilk on purpose: the executor itself
// panics with *Error, and the detectors build theirs with core.Violatef,
// which adds the offending cilk.FrameID.
package streamerr

import "fmt"

// Kind classifies a stream fault.
type Kind int

const (
	// KindOrder marks an event arriving out of the contract order (a
	// return that does not match the frame stack, a sync for a frame that
	// is not executing, ...).
	KindOrder Kind = iota
	// KindState marks consumer or executor state violating an invariant
	// the contract guarantees (unreduced views at a return, a sync with
	// multiple P bags, ...).
	KindState
	// KindMalformed marks an event that is not decodable at all: a bad
	// event kind byte, an oversized label, an unknown view operation.
	KindMalformed
	// KindTruncated marks a stream that ended mid-event, or a v2 stream
	// that ended before its footer.
	KindTruncated
	// KindCorrupt marks an integrity failure in a v2 trace: a CRC or
	// event-count mismatch against the footer, or trailing bytes after it.
	KindCorrupt
	// KindConsumer marks an arbitrary panic out of a downstream consumer
	// (or a runtime fault in a consumer driven off contract), wrapped so
	// the pipeline still reports one structured error type.
	KindConsumer
	// KindBudget marks a run aborted because it exceeded its event budget.
	KindBudget
	// KindDeadline marks a run or sweep aborted by its deadline.
	KindDeadline
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOrder:
		return "order-violation"
	case KindState:
		return "state-violation"
	case KindMalformed:
		return "malformed-event"
	case KindTruncated:
		return "truncated-stream"
	case KindCorrupt:
		return "corrupt-stream"
	case KindConsumer:
		return "consumer-panic"
	case KindBudget:
		return "budget-exceeded"
	case KindDeadline:
		return "deadline-exceeded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Error is the pipeline's structured stream error. Fields that are unknown
// at the detection site hold -1 and are filled in by the recovery point
// that has them (trace.ReplayAll knows the event index and byte offset; a
// detector knows the offending frame).
type Error struct {
	// Layer names the component that detected the fault: "cilk",
	// "peerset", "sp-bags", "spplus", "dag", "trace", "rader", "faults".
	Layer string
	// Kind classifies the fault.
	Kind Kind
	// Event is the index of the offending event in the stream, or -1.
	Event int64
	// Frame is the ID of the offending frame, or -1.
	Frame int64
	// Offset is the byte offset in a trace stream, or -1.
	Offset int64
	// Detail is the human-readable description.
	Detail string
}

// New returns an Error with all positional fields unknown.
func New(layer string, kind Kind, detail string) *Error {
	return &Error{Layer: layer, Kind: kind, Event: -1, Frame: -1, Offset: -1, Detail: detail}
}

// Errorf is New with formatting.
func Errorf(layer string, kind Kind, format string, a ...any) *Error {
	return New(layer, kind, fmt.Sprintf(format, a...))
}

// WithFrame records the offending frame and returns e.
func (e *Error) WithFrame(frame int64) *Error { e.Frame = frame; return e }

// WithEvent records the event index and returns e.
func (e *Error) WithEvent(n int64) *Error { e.Event = n; return e }

// WithOffset records the byte offset and returns e.
func (e *Error) WithOffset(off int64) *Error { e.Offset = off; return e }

// Error implements the error interface.
func (e *Error) Error() string {
	s := fmt.Sprintf("%s: %s: %s", e.Layer, e.Kind, e.Detail)
	switch {
	case e.Event >= 0 && e.Offset >= 0:
		s += fmt.Sprintf(" (event %d, byte offset %d)", e.Event, e.Offset)
	case e.Event >= 0:
		s += fmt.Sprintf(" (event %d)", e.Event)
	case e.Offset >= 0:
		s += fmt.Sprintf(" (byte offset %d)", e.Offset)
	}
	if e.Frame >= 0 {
		s += fmt.Sprintf(" [frame %d]", e.Frame)
	}
	return s
}

// FromPanic translates a recovered panic value into an *Error. A panic
// that already carries an *Error keeps its original layer and fields;
// anything else is wrapped as a consumer panic attributed to layer. It
// returns nil when p is nil so recovery points can call it unconditionally.
func FromPanic(layer string, p any) *Error {
	if p == nil {
		return nil
	}
	if se, ok := p.(*Error); ok {
		return se
	}
	return Errorf(layer, KindConsumer, "panic: %v", p)
}
