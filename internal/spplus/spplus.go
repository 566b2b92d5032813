// Package spplus implements the SP+ algorithm (§5–§6 of the paper), which
// detects determinacy races in Cilk computations that use reducer
// hyperobjects. SP+ extends SP-bags in two ways:
//
//  1. Each function's single P bag becomes a *stack* of P bags, one per
//     unreduced parallel view of the function's current sync block. Each P
//     bag carries the view ID minted when the corresponding continuation
//     was stolen (per the steal specification); the P bags partition the
//     function's parallel completed descendants by the view their initial
//     strands share.
//  2. Memory-access checks distinguish view-oblivious from view-aware
//     strands. For a view-oblivious access, logical parallelism alone is a
//     race, exactly as in SP-bags. For a view-aware access (inside Update,
//     Create-Identity or Reduce), a race additionally requires the two
//     strands to operate on *parallel views* — their view IDs must differ —
//     because two strands sharing a view are necessarily executed by one
//     worker between steals and thus serialized in this schedule (§5).
//
// Executing a stolen continuation pushes a fresh P bag with a new view ID;
// executing a Reduce pops the dominated view's P bag and unions it into the
// dominating one *before* the user Reduce code runs, so the reduce strand's
// accesses are in series with the descendants in both bags and carry the
// surviving view ID (§6). At a sync all parallel views have been reduced
// and a single P bag remains, restoring the SP-bags invariant.
//
// Given the steal specification, SP+ reports a determinacy race iff the
// fixed execution contains one (§6), in time O((T + Mτ)·α(v,v)) for a
// program with running time T, M specified steals and worst-case reduce
// cost τ (Theorem 5).
package spplus

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/mem"
	"repro/internal/obs"
)

type bagKind int8

const (
	kindS bagKind = iota
	kindP
)

// bag is a disjoint set with a kind and a view ID. A P bag's view ID is set
// at creation and preserved across unions into it, mirroring Figure 6's
// MakeBag note. The forest payload of the set's root is the bag's index in
// the detector's bag table.
type bag struct {
	kind bagKind
	vid  cilk.ViewID
	root dsu.Elem // dsu.None when empty
}

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), and so are their S bag and bottom P bag; the P bags
// of stolen continuations come from the detector's free list. A returning
// frame leaves every bag empty, so no forest payload names a parked
// record's bag.
type frameRec struct {
	id     cilk.FrameID
	elem   dsu.Elem
	s, p   int32   // bag-table indices of the S bag and the bottom P bag
	pstack []int32 // one P bag per unreduced view, oldest first: pstack[0] == p
	// slotted reports that s and p are allocated in the current bag
	// table. Reset and Restore replace the table, so they clear it on
	// every parked record.
	slotted bool
}

// topP is the bag-table index of the record's newest P bag.
func (r *frameRec) topP() int32 { return r.pstack[len(r.pstack)-1] }

// Detector runs SP+ over the cilk event stream of one run.
type Detector struct {
	forest dsu.Forest
	bags   []bag
	// freeBags holds the indices of P bags reductions have emptied, for
	// the next stolen continuation.
	freeBags []int32
	stack    []*frameRec
	reader   *mem.Shadow
	writer   *mem.Shadow
	lin      core.Lineage
	report   core.Report

	current *frameRec
	// view-aware section state
	vaDepth   int
	vaOp      cilk.ViewOp
	vaReducer *cilk.Reducer
	// inReduce marks that the executing strand is a runtime Reduce
	// invocation; reduceVID is the surviving view ID of that reduction,
	// which is the strand's view context (Top(F.P).vid in Figure 6's
	// top-pair case, generalized for non-top adjacent reductions).
	// reduceElem is the reduce invocation's own ID: the paper treats each
	// Reduce as a function instantiation of its own, and its ID must live
	// in the merged P bag — the reduce strand is in series with the
	// descendants it joins but parallel to the frame's newer view
	// contexts, so parking it in the frame's S bag would wrongly
	// serialize it with everything that follows.
	inReduce   bool
	reduceVID  cilk.ViewID
	reduceElem dsu.Elem

	// readerEv/writerEv shadow the same locations with the detector-relative
	// event ordinal of the recorded access, so a race report can point back
	// into the stream. Ordinals are truncated to int32 — adequate for any
	// trace the shadow space itself can hold.
	readerEv *mem.Shadow
	writerEv *mem.Shadow

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh SP+ detector.
func New() *Detector {
	return &Detector{
		reader:   mem.NewShadow(int32(dsu.None)),
		writer:   mem.NewShadow(int32(dsu.None)),
		readerEv: mem.NewShadow(0),
		writerEv: mem.NewShadow(0),
	}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "sp+" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

// newBag returns the index of an empty bag of the given kind and view ID,
// reusing a freed one when there is one.
func (d *Detector) newBag(kind bagKind, vid cilk.ViewID) int32 {
	b := bag{kind: kind, vid: vid, root: dsu.None}
	if n := len(d.freeBags); n > 0 {
		i := d.freeBags[n-1]
		d.freeBags = d.freeBags[:n-1]
		d.bags[i] = b
		return i
	}
	d.bags = append(d.bags, b)
	return int32(len(d.bags) - 1)
}

func (d *Detector) addToBag(b int32, e dsu.Elem) {
	d.counts.BagOps++
	bg := &d.bags[b]
	if bg.root == dsu.None {
		bg.root = e
		d.forest.SetPayload(e, b)
		return
	}
	bg.root = d.forest.Union(bg.root, e)
}

func (d *Detector) unionInto(dst, src int32) {
	sb, db := &d.bags[src], &d.bags[dst]
	if sb.root == dsu.None {
		return
	}
	d.counts.BagOps++
	if db.root == dsu.None {
		db.root = sb.root
		d.forest.SetPayload(sb.root, dst)
	} else {
		db.root = d.forest.Union(db.root, sb.root)
	}
	sb.root = dsu.None
}

func (d *Detector) top() *frameRec { return d.stack[len(d.stack)-1] }

func (d *Detector) bagOf(e dsu.Elem) *bag { return &d.bags[d.forest.Payload(e)] }

// ProgramStart implements cilk.Hooks.
func (d *Detector) ProgramStart(*cilk.Frame) {}

// ProgramEnd implements cilk.Hooks.
func (d *Detector) ProgramEnd(*cilk.Frame) {}

// FrameEnter implements Figure 6's "F spawns or calls G": G's S bag
// contains G and inherits the parent's current view ID; G's P stack starts
// with one empty bag of the same view ID.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	var inherit cilk.ViewID
	parent := core.NoParent
	if len(d.stack) > 0 {
		top := d.top()
		inherit = d.bags[top.topP()].vid
		parent = int32(top.elem)
	}
	var rec *frameRec
	d.stack, rec = core.PushRecord(d.stack)
	rec.id = f.ID
	if !rec.slotted {
		rec.s, rec.p, rec.slotted = d.newBag(kindS, inherit), d.newBag(kindP, inherit), true
	}
	d.bags[rec.s].vid, d.bags[rec.p].vid = inherit, inherit
	rec.pstack = append(rec.pstack[:0], rec.p)
	rec.elem = d.forest.MakeSet()
	d.addToBag(rec.s, rec.elem)
	d.lin.Add(int32(rec.elem), f.ID, f.Label, parent)
	d.current = rec
}

// FrameReturn implements "spawned G returns" (Top(F.P) ∪= G.S) and
// "called G returns" (F.S ∪= G.S).
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("spplus", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef("spplus", core.StreamOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	if len(grec.pstack) != 1 {
		panic(core.Violatef("spplus", core.StreamState, g.ID,
			"%v returned with %d P bags", g, len(grec.pstack)))
	}
	if d.bags[grec.p].root != dsu.None {
		panic(core.Violatef("spplus", core.StreamState, g.ID,
			"%v returned with a non-empty P bag (missing sync)", g))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if g.Spawned {
		d.unionInto(frec.topP(), grec.s)
	} else {
		d.unionInto(frec.s, grec.s)
	}
	d.current = frec
}

// Sync implements "F syncs": the single remaining P bag's contents move
// into F.S, and the bag, now empty, takes F.S's view ID.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	if len(rec.pstack) != 1 {
		panic(core.Violatef("spplus", core.StreamState, f.ID,
			"sync with %d P bags; reduces must precede sync", len(rec.pstack)))
	}
	d.unionInto(rec.s, rec.p)
	d.bags[rec.p].vid = d.bags[rec.s].vid
}

// ContinuationStolen implements "F executes a stolen continuation": push a
// fresh P bag carrying the new view ID.
func (d *Detector) ContinuationStolen(f *cilk.Frame, newVID cilk.ViewID) {
	d.events++
	d.counts.Steals++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "stolen continuation before any frame entered"))
	}
	rec := d.top()
	rec.pstack = append(rec.pstack, d.newBag(kindP, newVID))
}

// ReduceStart implements "F executes Reduce": the dominated view's P bag is
// popped and unioned into the dominating view's bag, whose view ID is
// preserved. This happens before the user Reduce code runs, so the reduce
// strand is in series with the descendants in both bags. The executor may
// reduce a non-top adjacent pair (ReduceMiddleFirst); the bags are located
// by their view IDs.
func (d *Detector) ReduceStart(f *cilk.Frame, keepVID, dieVID cilk.ViewID) {
	d.events++
	d.counts.Reduces++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "reduce before any frame entered"))
	}
	rec := d.top()
	idx := -1
	for i := len(rec.pstack) - 1; i > 0; i-- {
		if d.bags[rec.pstack[i]].vid == dieVID && d.bags[rec.pstack[i-1]].vid == keepVID {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(core.Violatef("spplus", core.StreamState, f.ID,
			"reduce of unknown view pair (%d,%d)", keepVID, dieVID))
	}
	d.unionInto(rec.pstack[idx-1], rec.pstack[idx])
	d.freeBags = append(d.freeBags, rec.pstack[idx])
	rec.pstack = append(rec.pstack[:idx], rec.pstack[idx+1:]...)
	d.inReduce = true
	d.reduceVID = keepVID
	// The reduce invocation's own ID joins the merged bag: in series with
	// everything the reduction joins, parallel to the frame's other views.
	d.reduceElem = d.forest.MakeSet()
	d.addToBag(rec.pstack[idx-1], d.reduceElem)
	d.lin.AddReduce(int32(d.reduceElem), f.ID, f.Label, int32(rec.elem))
}

// ReduceEnd implements cilk.Hooks.
func (d *Detector) ReduceEnd(f *cilk.Frame) {
	d.events++
	d.inReduce = false
	d.reduceElem = dsu.None
}

// ViewAwareBegin implements cilk.Hooks: accesses until ViewAwareEnd come
// from a view-aware strand.
func (d *Detector) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	d.events++
	d.counts.ViewAwares++
	d.vaDepth++
	d.vaOp = op
	d.vaReducer = r
}

// ViewAwareEnd implements cilk.Hooks.
func (d *Detector) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	d.events++
	d.vaDepth--
}

// ReducerCreate implements cilk.Hooks; reducer-reads are the Peer-Set
// algorithm's concern, not SP+'s.
func (d *Detector) ReducerCreate(*cilk.Frame, *cilk.Reducer) {}

// ReducerRead implements cilk.Hooks.
func (d *Detector) ReducerRead(*cilk.Frame, *cilk.Reducer) {}

// currentVID is the view ID of the executing strand's view context: the
// surviving view for a reduce strand, the top P bag's view otherwise.
func (d *Detector) currentVID() cilk.ViewID {
	if d.inReduce {
		return d.reduceVID
	}
	return d.bags[d.current.topP()].vid
}

// curElem is the ID recorded in the shadow spaces for the executing
// strand: the reduce invocation's own ID inside a Reduce, the enclosing
// function's otherwise.
func (d *Detector) curElem() dsu.Elem {
	if d.inReduce {
		return d.reduceElem
	}
	return d.current.elem
}

// race reports a determinacy race at a between the prior access by
// element prior and the executing strand's access, rendering it only if
// the report keeps it.
func (d *Detector) race(a mem.Addr, prior dsu.Elem, priorOp, op core.AccessOp, relation string) {
	cur := int32(d.curElem())
	if !d.report.Admit(core.Determinacy, a, "", d.lin.Frame(int32(prior)), d.lin.Frame(cur)) {
		return
	}
	ev := d.writerEv
	if priorOp == core.OpRead {
		ev = d.readerEv
	}
	second := d.lin.Access(cur, op)
	second.ViewAware, second.ViewOp, second.VID = d.vaDepth > 0, d.vaOp, d.currentVID()
	d.report.Keep(core.Race{
		Kind: core.Determinacy, Addr: a,
		First:  d.lin.Access(int32(prior), priorOp),
		Second: second,
		Prov:   core.Provenance{FirstEvent: int64(ev.Get(a)), SecondEvent: d.events, Relation: relation},
	})
}

// Load implements the two read rules of Figure 6.
func (d *Detector) Load(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Loads++
	if d.current == nil {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if d.vaDepth == 0 {
		d.loadOblivious(a)
	} else {
		d.loadAware(a)
	}
}

// Store implements the two write rules of Figure 6.
func (d *Detector) Store(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Stores++
	if d.current == nil {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if d.vaDepth == 0 {
		d.storeOblivious(a)
	} else {
		d.storeAware(a)
	}
}

func (d *Detector) loadOblivious(a mem.Addr) {
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None && d.bagOf(w).kind == kindP {
		d.race(a, w, core.OpWrite, core.OpRead, "writer in P-bag")
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.bagOf(r).kind == kindS {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeOblivious(a mem.Addr) {
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.bagOf(r).kind == kindP {
		d.race(a, r, core.OpRead, core.OpWrite, "reader in P-bag")
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.bagOf(w).kind == kindP {
		d.race(a, w, core.OpWrite, core.OpWrite, "writer in P-bag")
	}
	if w == dsu.None || d.bagOf(w).kind == kindS {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) loadAware(a mem.Addr) {
	vid := d.currentVID()
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None {
		if b := d.bagOf(w); b.kind == kindP && b.vid != vid {
			d.race(a, w, core.OpWrite, core.OpRead, "writer on parallel view")
		}
	}
	r := dsu.Elem(d.reader.Get(a))
	if r == dsu.None || d.bagOf(r).kind == kindS ||
		(d.inReduce && d.bagOf(r).vid == vid) {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeAware(a mem.Addr) {
	vid := d.currentVID()
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None {
		if b := d.bagOf(r); b.kind == kindP && b.vid != vid {
			d.race(a, r, core.OpRead, core.OpWrite, "reader on parallel view")
		}
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None {
		if b := d.bagOf(w); b.kind == kindP && b.vid != vid {
			d.race(a, w, core.OpWrite, core.OpWrite, "writer on parallel view")
		}
	}
	if w == dsu.None || d.bagOf(w).kind == kindS ||
		(d.inReduce && d.bagOf(w).vid == vid) {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider: the disjoint-set accounting behind
// the O((T+Mτ)·α(v,v)) bound of Theorem 5.
func (d *Detector) Stats() core.Stats {
	finds, unions := d.forest.Stats()
	return core.Stats{Elems: d.forest.Len(), Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts { return d.counts }
