// Package cilk implements the Cilk-style fork-join execution model that the
// paper's race-detection algorithms operate on.
//
// A Cilk program is expressed as Go code against a *Ctx: Spawn and Sync
// mirror cilk_spawn and cilk_sync, Call is an ordinary invocation of a Cilk
// function, and ParFor mirrors cilk_for via the usual divide-and-conquer
// expansion. The Executor runs the program serially in its depth-first
// serial order — exactly the order the Peer-Set, SP-bags and SP+ algorithms
// evaluate strands in — while emitting the event stream that Rader obtains
// from compiler instrumentation: frame entry and return, syncs, stolen
// continuations, reducer reads, view-aware sections (Update,
// Create-Identity, Reduce), and memory loads and stores.
//
// Steals do not happen physically; they are simulated according to a steal
// specification (the paper's §5 input to SP+), which fixes the schedule:
// which continuations are stolen, and in which order views are reduced. The
// executor maintains reducer views according to the three view invariants
// of §5:
//
//  1. a strand with out-degree 1 passes its view to its successor;
//  2. a spawned child inherits the spawning strand's view, while the
//     continuation gets a fresh identity view iff it is stolen;
//  3. a sync strand sees the view of the first strand of its function,
//     which the executor guarantees by reducing every parallel view created
//     in the sync block before the sync, destroying the dominated view of
//     each adjacent pair.
package cilk

import "fmt"

// FrameID uniquely identifies one Cilk function instantiation within a run.
// IDs are assigned in frame-entry (serial) order; the root frame has ID 0.
type FrameID int32

// NoFrame is the sentinel for "no frame", used by shadow spaces.
const NoFrame FrameID = -1

// ViewID identifies one reducer view within a run. The root (leftmost) view
// context has ViewID 0; each simulated steal mints a fresh ViewID.
type ViewID int64

// ViewOp classifies a view-aware section.
type ViewOp int

// The three view-aware operations of a reducer (§5).
const (
	OpUpdate ViewOp = iota
	OpCreateIdentity
	OpReduce
)

// String implements fmt.Stringer.
func (op ViewOp) String() string {
	switch op {
	case OpUpdate:
		return "Update"
	case OpCreateIdentity:
		return "Create-Identity"
	case OpReduce:
		return "Reduce"
	default:
		return fmt.Sprintf("ViewOp(%d)", int(op))
	}
}

// Frame is one Cilk function instantiation. The executor exposes frames to
// hooks; detectors treat them as read-only. A frame is valid until its
// FrameReturn, after which the executor reuses it for the next frame at
// its depth (the lifetime rule on Hooks).
type Frame struct {
	ID      FrameID
	Parent  *Frame
	Label   string // function name, for reports
	Spawned bool   // spawned (vs called) by its parent
	Depth   int    // nesting depth of Cilk functions; root is 0

	// SyncBlock is the index of the sync block currently executing in this
	// frame; it increments at each sync (explicit or implicit).
	SyncBlock int
	// LocalSpawns counts spawns since the frame's last sync — the paper's
	// local-spawn count ls, and also the 1-based index of the next
	// continuation within the current sync block.
	LocalSpawns int
	// TotalSpawns counts spawns over the frame's lifetime.
	TotalSpawns int
	// AncestorSpawns is the paper's ancestor-spawn count: the total
	// number of spawns each ancestor had performed since that ancestor's
	// last sync, frozen at this frame's entry (ancestors are suspended
	// while this frame runs). AncestorSpawns+LocalSpawns is the number of
	// P nodes on the root-to-here path of the SP parse tree — the
	// "continuation depth" the §7 update-eliciting specifications group
	// by.
	AncestorSpawns int

	everSpawned bool
	slots       []*viewSlot // view-slot stack; slots[0] is inherited
	slots0      [4]*viewSlot
	ctx         Ctx
}

// CurrentVID returns the view ID associated with the frame's currently
// executing strand.
func (f *Frame) CurrentVID() ViewID { return f.top().vid }

// PendingViews reports how many unreduced parallel views the frame's
// current sync block has created (the height of the view-slot stack above
// the inherited slot).
func (f *Frame) PendingViews() int { return len(f.slots) - 1 }

func (f *Frame) top() *viewSlot { return f.slots[len(f.slots)-1] }

// String implements fmt.Stringer.
func (f *Frame) String() string {
	if f == nil {
		return "<nil frame>"
	}
	return fmt.Sprintf("%s#%d", f.Label, f.ID)
}

// ContInfo describes one continuation point (the code after a cilk_spawn)
// that a steal specification may choose to steal.
type ContInfo struct {
	// Frame is the spawning frame. It is valid only inside the
	// ShouldSteal, ReducesAfterReturn and Gate.OnProbe calls that receive
	// the ContInfo; the copies in Result.Steals carry nil.
	Frame     *Frame
	Label     string // the spawning frame's label
	Depth     int    // the spawning frame's Depth
	SyncBlock int    // sync block index within the frame
	Index     int    // 1-based continuation index within the sync block
	Seq       int    // global sequence number of this continuation in serial order
	// PDepth is the number of P nodes on the root-to-continuation path of
	// the SP parse tree (the frame's ancestor-spawn count plus its local
	// spawn count). Theorem 6's breadth-first specification family steals
	// all continuations of one PDepth per specification.
	PDepth int
}

// String renders the continuation's replay label, the identifier Rader
// reports so a racy schedule can be repeated for regression tests (§8).
func (ci ContInfo) String() string {
	return fmt.Sprintf("%s/b%d/c%d@%d", ci.Label, ci.SyncBlock, ci.Index, ci.Seq)
}

// ReduceOrder selects the order in which the executor performs the reduce
// operations that a sync block's simulated steals make necessary.
type ReduceOrder int

const (
	// ReduceAtSync performs all reductions immediately before the sync,
	// newest adjacent pair first (right-to-left). This is the "hold off on
	// a reduction" mode the paper's modified runtime uses (§8).
	ReduceAtSync ReduceOrder = iota
	// ReduceEager performs a reduction as soon as a spawned child returns
	// and two unreduced views are adjacent, mirroring the opportunistic
	// eager reduction of the stock Cilk runtime.
	ReduceEager
	// ReduceMiddleFirst reduces, at sync, the two oldest parallel views
	// first and then proceeds right-to-left. With steals at continuations
	// i<j<k this elicits the reduce strand combining views (i+1..j) and
	// (j+1..k) — the general adjacent-pair shape Theorem 7 counts.
	ReduceMiddleFirst
)

// StealSpec fixes the schedule the executor simulates: which continuations
// are stolen and in which order reductions run (§5's "steal specification").
type StealSpec interface {
	// ShouldSteal reports whether the continuation described by ci is
	// stolen in this schedule.
	ShouldSteal(ci ContInfo) bool
	// Order returns the reduce ordering policy for this schedule.
	Order() ReduceOrder
}

// ReduceScheduler is an optional extension of StealSpec: a spec that also
// implements it controls exactly when reductions run, by asking for a
// number of (top adjacent pair) reductions immediately after the spawned
// child at a given continuation returns. Remaining reductions are forced at
// the sync. This is how the paper's Figure 5 schedule — r0 reducing views α
// and β while γ and δ are still live — is expressed.
type ReduceScheduler interface {
	// ReducesAfterReturn reports how many adjacent-pair reductions to
	// perform right after the child whose continuation is ci returns (and
	// after ci's own steal decision). Reductions collapse the newest
	// reducible pair first and never touch the top view, whose
	// continuation is still live; the executor clamps to the number of
	// reducible pairs.
	ReducesAfterReturn(ci ContInfo) int
}

// NoSteals is the empty schedule: the serial execution, no views beyond the
// leftmost, no reduce operations.
type NoSteals struct{}

// ShouldSteal implements StealSpec: nothing is stolen.
func (NoSteals) ShouldSteal(ContInfo) bool { return false }

// Order implements StealSpec.
func (NoSteals) Order() ReduceOrder { return ReduceAtSync }

// StealAll steals every continuation, maximizing view churn.
type StealAll struct{ Reduce ReduceOrder }

// ShouldSteal implements StealSpec: everything is stolen.
func (StealAll) ShouldSteal(ContInfo) bool { return true }

// Order implements StealSpec.
func (s StealAll) Order() ReduceOrder { return s.Reduce }

// viewSlot holds, for one simulated steal (or for the leftmost context),
// the views of every reducer updated in that context. Slots are created
// empty; identity views materialize lazily on the first Update, mirroring
// the runtime optimization described in §1 and §2. Views are indexed by
// the reducer's registration index.
type viewSlot struct {
	vid   ViewID
	views []view
	order []*Reducer // deterministic iteration order for reductions
}

// view is one reducer's view in a slot; ok distinguishes a view whose
// value is nil from no view at all.
type view struct {
	v  any
	ok bool
}

func (s *viewSlot) get(r *Reducer) (any, bool) {
	if r.idx >= len(s.views) {
		return nil, false
	}
	e := s.views[r.idx]
	return e.v, e.ok
}

func (s *viewSlot) set(r *Reducer, v any) {
	if r.idx >= len(s.views) {
		s.views = append(s.views, make([]view, r.idx+1-len(s.views))...)
	}
	e := &s.views[r.idx]
	if !e.ok {
		e.ok = true
		s.order = append(s.order, r)
	}
	e.v = v
}

// clear empties the slot for reuse, dropping its references to views.
func (s *viewSlot) clear() {
	for _, r := range s.order {
		s.views[r.idx] = view{}
	}
	s.order = s.order[:0]
}
