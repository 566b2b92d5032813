// Package faults is the fault-injection layer of the analysis pipeline: a
// cilk.Hooks middleware that deterministically perturbs the event stream
// on its way to a downstream consumer (a detector, the dag recorder, a
// trace writer). It exists to property-test the pipeline's robustness
// contract: every injected fault must either surface as a structured
// *streamerr.Error or be provably harmless — never a process crash.
//
// Faults are event-level (a dropped FrameEnter, a duplicated steal, an
// event delivered as the wrong kind, a stream cut short, a consumer that
// panics mid-stream), complementing the byte-level corruption that
// FuzzReplay exercises in internal/trace. Injection is driven by a Plan —
// a (fault kind, event index) pair — so every failure is replayable; the
// seeded Plans generator derives plans without consulting the wall clock
// or global randomness.
package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/streamerr"
)

// FaultKind enumerates the injectable event-level fault classes.
type FaultKind int

const (
	// Drop swallows one event: the consumer never sees it.
	Drop FaultKind = iota
	// Duplicate delivers one event twice back to back.
	Duplicate
	// CorruptKind delivers a different event than the one that occurred,
	// reusing the original event's frame — the event-level analogue of a
	// corrupted kind byte.
	CorruptKind
	// Truncate stops delivering events from the chosen index onward.
	Truncate
	// ConsumerPanic panics with a value that is not a *streamerr.Error
	// when the chosen event is delivered, simulating a crashing
	// downstream consumer.
	ConsumerPanic
	// NumKinds is the number of fault classes, for plan generators.
	NumKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case CorruptKind:
		return "corrupt-kind"
	case Truncate:
		return "truncate"
	case ConsumerPanic:
		return "consumer-panic"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Plan is one deterministic injection: apply Kind to the event with
// 0-based index At. A plan whose At lies beyond the end of the stream
// injects nothing (Injector.Injected reports false).
type Plan struct {
	Kind FaultKind
	At   int64
}

// String implements fmt.Stringer.
func (p Plan) String() string { return fmt.Sprintf("%v@%d", p.Kind, p.At) }

// Plans derives n deterministic plans covering all fault classes round-
// robin, with event indices drawn from a seeded generator over [0, total).
// No wall-clock or global randomness is involved: equal arguments yield
// equal plans.
func Plans(seed int64, n int, total int64) []Plan {
	if total < 1 {
		total = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Plan{
			Kind: FaultKind(i % int(NumKinds)),
			At:   rng.Int63n(total),
		})
	}
	return out
}

// Injector is the cilk.Hooks middleware applying one Plan to the stream
// flowing into a downstream consumer.
type Injector struct {
	h    cilk.Hooks
	plan Plan

	n         int64
	truncated bool
	injected  bool
}

// New wraps downstream with the fault described by plan.
func New(downstream cilk.Hooks, plan Plan) *Injector {
	return &Injector{h: downstream, plan: plan}
}

// Events reports how many events the injector has observed.
func (in *Injector) Events() int64 { return in.n }

// Injected reports whether the planned fault actually fired (false when
// the plan's event index lies beyond the end of the stream).
func (in *Injector) Injected() bool { return in.injected }

// step counts one observed event and applies the plan if this is the
// chosen index. fire delivers the original event; frame is the event's
// frame (nil for none), used by CorruptKind to fabricate a different
// event about the same frame. wasSync marks events that already are syncs
// so the corruption always changes the kind.
func (in *Injector) step(frame *cilk.Frame, wasSync bool, fire func(cilk.Hooks)) {
	i := in.n
	in.n++
	if in.truncated {
		return
	}
	if i != in.plan.At {
		fire(in.h)
		return
	}
	in.injected = true
	switch in.plan.Kind {
	case Drop:
		// Swallowed.
	case Duplicate:
		fire(in.h)
		fire(in.h)
	case CorruptKind:
		if frame == nil {
			// No frame to fabricate an event about; the closest kind
			// corruption is losing the event entirely.
			return
		}
		if wasSync {
			in.h.ReduceEnd(frame)
		} else {
			in.h.Sync(frame)
		}
	case Truncate:
		in.truncated = true
	case ConsumerPanic:
		// Deliberately NOT a *streamerr.Error: the recovery points must
		// wrap arbitrary consumer panics into KindConsumer themselves.
		panic(fmt.Sprintf("faults: injected consumer panic at event %d", i))
	default:
		panic(streamerr.Errorf("faults", streamerr.KindMalformed,
			"unknown fault kind %d", in.plan.Kind))
	}
}

// ProgramStart implements cilk.Hooks.
func (in *Injector) ProgramStart(f *cilk.Frame) {
	in.step(f, false, func(h cilk.Hooks) { h.ProgramStart(f) })
}

// ProgramEnd implements cilk.Hooks.
func (in *Injector) ProgramEnd(f *cilk.Frame) {
	in.step(f, false, func(h cilk.Hooks) { h.ProgramEnd(f) })
}

// FrameEnter implements cilk.Hooks.
func (in *Injector) FrameEnter(f *cilk.Frame) {
	in.step(f, false, func(h cilk.Hooks) { h.FrameEnter(f) })
}

// FrameReturn implements cilk.Hooks.
func (in *Injector) FrameReturn(g, f *cilk.Frame) {
	in.step(g, false, func(h cilk.Hooks) { h.FrameReturn(g, f) })
}

// Sync implements cilk.Hooks.
func (in *Injector) Sync(f *cilk.Frame) {
	in.step(f, true, func(h cilk.Hooks) { h.Sync(f) })
}

// ContinuationStolen implements cilk.Hooks.
func (in *Injector) ContinuationStolen(f *cilk.Frame, vid cilk.ViewID) {
	in.step(f, false, func(h cilk.Hooks) { h.ContinuationStolen(f, vid) })
}

// ReduceStart implements cilk.Hooks.
func (in *Injector) ReduceStart(f *cilk.Frame, keep, die cilk.ViewID) {
	in.step(f, false, func(h cilk.Hooks) { h.ReduceStart(f, keep, die) })
}

// ReduceEnd implements cilk.Hooks.
func (in *Injector) ReduceEnd(f *cilk.Frame) {
	in.step(f, false, func(h cilk.Hooks) { h.ReduceEnd(f) })
}

// ViewAwareBegin implements cilk.Hooks.
func (in *Injector) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	in.step(f, false, func(h cilk.Hooks) { h.ViewAwareBegin(f, op, r) })
}

// ViewAwareEnd implements cilk.Hooks.
func (in *Injector) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	in.step(f, false, func(h cilk.Hooks) { h.ViewAwareEnd(f, op, r) })
}

// ReducerCreate implements cilk.Hooks.
func (in *Injector) ReducerCreate(f *cilk.Frame, r *cilk.Reducer) {
	in.step(f, false, func(h cilk.Hooks) { h.ReducerCreate(f, r) })
}

// ReducerRead implements cilk.Hooks.
func (in *Injector) ReducerRead(f *cilk.Frame, r *cilk.Reducer) {
	in.step(f, false, func(h cilk.Hooks) { h.ReducerRead(f, r) })
}

// Load implements cilk.Hooks.
func (in *Injector) Load(f *cilk.Frame, a mem.Addr) {
	in.step(f, false, func(h cilk.Hooks) { h.Load(f, a) })
}

// Store implements cilk.Hooks.
func (in *Injector) Store(f *cilk.Frame, a mem.Addr) {
	in.step(f, false, func(h cilk.Hooks) { h.Store(f, a) })
}

var _ cilk.Hooks = (*Injector)(nil)
