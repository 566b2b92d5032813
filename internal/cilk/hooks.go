package cilk

import "repro/internal/mem"

// Hooks is the instrumentation interface the executor drives. It is the Go
// analogue of the compiler instrumentation Rader inserts: parallel-control
// events (akin to the Low Overhead Annotations) plus memory-access events
// (akin to the ThreadSanitizer hooks). Detectors implement Hooks; passing a
// nil Hooks to the executor runs the program with no instrumentation at
// all, which is the "no instrumentation" baseline of Figure 7, while
// passing Empty runs it against no-op callbacks, the "empty tool" baseline
// of Figure 8.
//
// Event ordering contract, matching §5 and §6:
//
//   - FrameEnter(G) fires before any event of G's body; FrameReturn(G)
//     fires after G's implicit sync and before control resumes in the
//     parent.
//   - ContinuationStolen(F, vid) fires when the serial execution reaches a
//     continuation the steal specification marks stolen, before any event
//     of the continuation itself.
//   - ReduceStart(F, keep, die) fires before the Reduce operation's own
//     view-aware section and its memory accesses; the SP+ P-bag union is
//     performed on this event, which is why a reduce strand's accesses
//     carry the surviving view ID (§6).
//   - Sync(F) fires after every reduction of the sync block has completed,
//     so the detector's P stack is back to a single bag (§6's invariant).
//   - ViewAwareBegin/ViewAwareEnd bracket the body of every Update,
//     Create-Identity and Reduce operation; Load/Store events in between
//     come from a view-aware strand, all others from view-oblivious
//     strands.
//
// Frame lifetime: a *Frame, and the Ctx it carries, is valid from the
// FrameEnter that introduces it until that frame's FrameReturn. The
// executor keeps one frame per depth of the serial stack and reuses it for
// the next frame entered at that depth, so a hook must not keep a *Frame
// or a *Ctx past FrameReturn; it copies out what it needs (ID, Label)
// instead. The trace replayer happens to keep every frame of a replay, so
// a hook that breaks the rule can agree with replay and still go wrong
// live.
//
// Threading contract: the serial executor and the trace replay engine
// drive Hooks from a single goroutine, and the serial detectors (SP-bags,
// SP+, Peer-Set, the depa replay detector) rely on that — their state
// machines assume one totally-ordered event stream and are NOT safe for
// concurrent invocation. A caller that drives hooks from several
// goroutines (the work-stealing runtime's live mode, a test harness
// fanning one stream to per-worker consumers) must either give each
// goroutine its own Hooks value or use an implementation documented as
// concurrent-safe (Empty is; a Multi is exactly when every element is,
// see Multi's doc). Violating the contract is a data race, not a detected
// error: run such configurations under the race detector.
type Hooks interface {
	ProgramStart(root *Frame)
	ProgramEnd(root *Frame)

	FrameEnter(f *Frame)
	FrameReturn(f, parent *Frame)
	Sync(f *Frame)
	ContinuationStolen(f *Frame, newVID ViewID)

	ReduceStart(f *Frame, keepVID, dieVID ViewID)
	ReduceEnd(f *Frame)
	ViewAwareBegin(f *Frame, op ViewOp, r *Reducer)
	ViewAwareEnd(f *Frame, op ViewOp, r *Reducer)

	ReducerCreate(f *Frame, r *Reducer)
	ReducerRead(f *Frame, r *Reducer)

	Load(f *Frame, a mem.Addr)
	Store(f *Frame, a mem.Addr)
}

// Empty is a Hooks implementation whose callbacks do nothing. Running a
// program against Empty measures pure instrumentation dispatch cost — the
// paper's "empty tool" (§8).
type Empty struct{}

// ProgramStart implements Hooks.
func (Empty) ProgramStart(*Frame) {}

// ProgramEnd implements Hooks.
func (Empty) ProgramEnd(*Frame) {}

// FrameEnter implements Hooks.
func (Empty) FrameEnter(*Frame) {}

// FrameReturn implements Hooks.
func (Empty) FrameReturn(*Frame, *Frame) {}

// Sync implements Hooks.
func (Empty) Sync(*Frame) {}

// ContinuationStolen implements Hooks.
func (Empty) ContinuationStolen(*Frame, ViewID) {}

// ReduceStart implements Hooks.
func (Empty) ReduceStart(*Frame, ViewID, ViewID) {}

// ReduceEnd implements Hooks.
func (Empty) ReduceEnd(*Frame) {}

// ViewAwareBegin implements Hooks.
func (Empty) ViewAwareBegin(*Frame, ViewOp, *Reducer) {}

// ViewAwareEnd implements Hooks.
func (Empty) ViewAwareEnd(*Frame, ViewOp, *Reducer) {}

// ReducerCreate implements Hooks.
func (Empty) ReducerCreate(*Frame, *Reducer) {}

// ReducerRead implements Hooks.
func (Empty) ReducerRead(*Frame, *Reducer) {}

// Load implements Hooks.
func (Empty) Load(*Frame, mem.Addr) {}

// Store implements Hooks.
func (Empty) Store(*Frame, mem.Addr) {}

// Multi fans events out to several Hooks in order, so a detector and a
// trace recorder can observe the same run.
//
// Multi itself holds no mutable state — each callback is a read-only
// iteration over the slice — so a Multi is safe for concurrent invocation
// exactly when every element is. Under a single-goroutine driver the
// in-order fan-out additionally guarantees every element sees the same
// totally-ordered stream; under a concurrent driver no such total order
// exists and each element must tolerate interleaved callbacks (the Hooks
// threading contract above).
type Multi []Hooks

// MultiHooks builds the cheapest demultiplexer for the given consumers:
// nil entries are dropped, a single survivor is returned unwrapped (no
// fan-out indirection on the hot path), and zero survivors collapse to
// Empty. It is the hook-chain constructor behind the single-pass replay
// engine and the all-detectors run mode: one decoded event stream feeding
// every registered consumer.
func MultiHooks(hs ...Hooks) Hooks {
	// Count first so the 0- and 1-consumer cases allocate nothing: the
	// replay engine's zero-allocation decode loop calls this per replay.
	n := 0
	var single Hooks
	for _, h := range hs {
		if h != nil {
			n++
			single = h
		}
	}
	switch n {
	case 0:
		return Empty{}
	case 1:
		return single
	}
	out := make(Multi, 0, n)
	for _, h := range hs {
		if h != nil {
			out = append(out, h)
		}
	}
	return out
}

// ProgramStart implements Hooks.
func (m Multi) ProgramStart(f *Frame) {
	for _, h := range m {
		h.ProgramStart(f)
	}
}

// ProgramEnd implements Hooks.
func (m Multi) ProgramEnd(f *Frame) {
	for _, h := range m {
		h.ProgramEnd(f)
	}
}

// FrameEnter implements Hooks.
func (m Multi) FrameEnter(f *Frame) {
	for _, h := range m {
		h.FrameEnter(f)
	}
}

// FrameReturn implements Hooks.
func (m Multi) FrameReturn(f, p *Frame) {
	for _, h := range m {
		h.FrameReturn(f, p)
	}
}

// Sync implements Hooks.
func (m Multi) Sync(f *Frame) {
	for _, h := range m {
		h.Sync(f)
	}
}

// ContinuationStolen implements Hooks.
func (m Multi) ContinuationStolen(f *Frame, vid ViewID) {
	for _, h := range m {
		h.ContinuationStolen(f, vid)
	}
}

// ReduceStart implements Hooks.
func (m Multi) ReduceStart(f *Frame, keep, die ViewID) {
	for _, h := range m {
		h.ReduceStart(f, keep, die)
	}
}

// ReduceEnd implements Hooks.
func (m Multi) ReduceEnd(f *Frame) {
	for _, h := range m {
		h.ReduceEnd(f)
	}
}

// ViewAwareBegin implements Hooks.
func (m Multi) ViewAwareBegin(f *Frame, op ViewOp, r *Reducer) {
	for _, h := range m {
		h.ViewAwareBegin(f, op, r)
	}
}

// ViewAwareEnd implements Hooks.
func (m Multi) ViewAwareEnd(f *Frame, op ViewOp, r *Reducer) {
	for _, h := range m {
		h.ViewAwareEnd(f, op, r)
	}
}

// ReducerCreate implements Hooks.
func (m Multi) ReducerCreate(f *Frame, r *Reducer) {
	for _, h := range m {
		h.ReducerCreate(f, r)
	}
}

// ReducerRead implements Hooks.
func (m Multi) ReducerRead(f *Frame, r *Reducer) {
	for _, h := range m {
		h.ReducerRead(f, r)
	}
}

// Load implements Hooks.
func (m Multi) Load(f *Frame, a mem.Addr) {
	for _, h := range m {
		h.Load(f, a)
	}
}

// Store implements Hooks.
func (m Multi) Store(f *Frame, a mem.Addr) {
	for _, h := range m {
		h.Store(f, a)
	}
}
