// Package spplus implements the SP+ algorithm (§5–§6 of the paper), which
// detects determinacy races in Cilk computations that use reducer
// hyperobjects, and SP-bags, the algorithm it extends: SPBags is SP+ with
// its reducer events ignored. SP+ extends SP-bags in two ways:
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
//
// An ID enters the disjoint-set forest only when a shadow write or a
// rendered race first needs it: a frame's S bag, or the bag a reduction
// merged into, holds its place until then (curElem).
package spplus

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/streamerr"
)

// The kinds of SP+'s bags. A bag's view is a view ID, set when the bag is
// made and kept across unions into it, mirroring Figure 6's MakeBag note.
const (
	kindS = iota
	kindP
)

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), and so are their S bag and bottom P bag; the P bags
// of stolen continuations come from the bag table's free list. A returning
// frame leaves every bag empty, so no forest payload names a parked
// record's bag.
type frameRec struct {
	id     cilk.FrameID
	label  string
	elem   dsu.Elem // dsu.None until elemAt mints it
	s, p   int32    // bag-table indices of the S bag and the bottom P bag
	pstack []int32  // one P bag per unreduced view, oldest first: pstack[0] == p
	// slotted reports that s and p are allocated in the current bag
	// table. Reset and Restore replace the table, so they clear it on
	// every parked record.
	slotted bool
}

// topP is the bag-table index of the record's newest P bag.
func (r *frameRec) topP() int32 { return r.pstack[len(r.pstack)-1] }

// Detector runs SP+ over the cilk event stream of one run.
type Detector struct {
	// bags holds every frame's bags; the P bags reductions empty go back
	// to it for the next stolen continuation.
	bags   dsu.Bags
	stack  []*frameRec
	reader *mem.Shadow
	writer *mem.Shadow
	lin    core.Lineage
	report core.Report
	layer  string // the layer of the detector's typed errors

	// view-aware section state
	vaDepth int
	vaOp    cilk.ViewOp
	// inReduce marks that the executing strand is a runtime Reduce
	// invocation; reduceVID is the surviving view ID of that reduction,
	// which is the strand's view context (Top(F.P).vid in Figure 6's
	// top-pair case, generalized for non-top adjacent reductions).
	// reduceElem is the reduce invocation's own ID: the paper treats each
	// Reduce as a function instantiation of its own, and its ID must live
	// in the merged P bag — the reduce strand is in series with the
	// descendants it joins but parallel to the frame's newer view
	// contexts, so parking it in the frame's S bag would wrongly
	// serialize it with everything that follows. It stays dsu.None until
	// reduceID mints it into reduceBag, rendering as reduceFrame and
	// reduceLabel, the frame of the ReduceStart event.
	inReduce    bool
	reduceVID   int64
	reduceElem  dsu.Elem
	reduceBag   int32
	reduceFrame cilk.FrameID
	reduceLabel string

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
		layer:    "spplus",
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

func (d *Detector) top() *frameRec { return d.stack[len(d.stack)-1] }

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
	d.settleReduce()
	var inherit int64
	if len(d.stack) > 0 {
		inherit = d.bags.At(d.top().topP()).View
	}
	var rec *frameRec
	d.stack, rec = core.PushRecord(d.stack)
	rec.id, rec.label, rec.elem = f.ID, f.Label, dsu.None
	if !rec.slotted {
		rec.s, rec.p, rec.slotted = d.bags.New(kindS, inherit), d.bags.New(kindP, inherit), true
	}
	d.bags.At(rec.s).View, d.bags.At(rec.p).View = inherit, inherit
	rec.pstack = append(rec.pstack[:0], rec.p)
	d.bags.Hold(rec.s)
}

// elemAt returns the ID of the frame at stack depth i, minting it on first
// use. FrameEnter only holds the ID's place in the frame's S bag, and a
// live frame's ID never leaves that bag, so minting it there late puts it
// where minting at entry would have. Unminted ancestors are minted first,
// so the lineage keeps the same parent chain.
func (d *Detector) elemAt(i int) dsu.Elem {
	rec := d.stack[i]
	if rec.elem == dsu.None {
		parent := core.NoParent
		if i > 0 {
			parent = int32(d.elemAt(i - 1))
		}
		rec.elem = d.bags.Mint(rec.s)
		d.lin.Add(int32(rec.elem), rec.id, rec.label, parent)
	}
	return rec.elem
}

// reduceID returns the executing reduce invocation's ID, minting it on
// first use into the bag its ReduceStart merged into.
func (d *Detector) reduceID() dsu.Elem {
	if d.reduceElem == dsu.None {
		parent := int32(d.elemAt(len(d.stack) - 1))
		d.reduceElem = d.bags.Mint(d.reduceBag)
		d.lin.AddReduce(int32(d.reduceElem), d.reduceFrame, d.reduceLabel, parent)
	}
	return d.reduceElem
}

// settleReduce mints a reduce invocation's pending ID before an event that
// can move bags or the stack: reduceBag holds the ID's place only until
// then. Only a stream that interleaves these events with a reduce strand
// gets here with one pending.
func (d *Detector) settleReduce() {
	if d.inReduce && d.reduceElem == dsu.None {
		d.reduceID()
	}
}

// FrameReturn implements "spawned G returns" (Top(F.P) ∪= G.S) and
// "called G returns" (F.S ∪= G.S).
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	d.settleReduce()
	if len(d.stack) < 2 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef(d.layer, streamerr.KindOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	if len(grec.pstack) != 1 {
		panic(core.Violatef(d.layer, streamerr.KindState, g.ID,
			"%v returned with %d P bags", g, len(grec.pstack)))
	}
	if !d.bags.At(grec.p).Empty() {
		panic(core.Violatef(d.layer, streamerr.KindState, g.ID,
			"frame %v returned with a non-empty P bag (missing sync)", g.ID))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if g.Spawned {
		d.bags.Union(frec.topP(), grec.s)
	} else {
		d.bags.Union(frec.s, grec.s)
	}
}

// Sync implements "F syncs": the single remaining P bag's contents move
// into F.S, and the bag, now empty, takes F.S's view ID.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	d.settleReduce()
	if len(d.stack) == 0 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	if len(rec.pstack) != 1 {
		panic(core.Violatef(d.layer, streamerr.KindState, f.ID,
			"sync with %d P bags; reduces must precede sync", len(rec.pstack)))
	}
	d.bags.Union(rec.s, rec.p)
	d.bags.At(rec.p).View = d.bags.At(rec.s).View
}

// ContinuationStolen implements "F executes a stolen continuation": push a
// fresh P bag carrying the new view ID.
func (d *Detector) ContinuationStolen(f *cilk.Frame, newVID cilk.ViewID) {
	d.events++
	d.counts.Steals++
	d.settleReduce()
	if len(d.stack) == 0 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, f.ID, "stolen continuation before any frame entered"))
	}
	rec := d.top()
	rec.pstack = append(rec.pstack, d.bags.New(kindP, int64(newVID)))
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
	d.settleReduce()
	if len(d.stack) == 0 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, f.ID, "reduce before any frame entered"))
	}
	rec := d.top()
	keep, die := int64(keepVID), int64(dieVID)
	idx := -1
	for i := len(rec.pstack) - 1; i > 0; i-- {
		if d.bags.At(rec.pstack[i]).View == die && d.bags.At(rec.pstack[i-1]).View == keep {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(core.Violatef(d.layer, streamerr.KindState, f.ID,
			"reduce of unknown view pair (%d,%d)", keepVID, dieVID))
	}
	d.bags.Union(rec.pstack[idx-1], rec.pstack[idx])
	d.bags.Free(rec.pstack[idx])
	rec.pstack = append(rec.pstack[:idx], rec.pstack[idx+1:]...)
	d.inReduce = true
	d.reduceVID = keep
	// The reduce invocation's own ID joins the merged bag: in series with
	// everything the reduction joins, parallel to the frame's other views.
	d.reduceBag, d.reduceElem = rec.pstack[idx-1], dsu.None
	d.reduceFrame, d.reduceLabel = f.ID, f.Label
	d.bags.Hold(d.reduceBag)
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
func (d *Detector) currentVID() int64 {
	if d.inReduce {
		return d.reduceVID
	}
	return d.bags.At(d.top().topP()).View
}

// curElem is the ID recorded in the shadow spaces for the executing
// strand: the reduce invocation's own ID inside a Reduce, the enclosing
// function's otherwise. It mints the ID on its first store.
func (d *Detector) curElem() dsu.Elem {
	if d.inReduce {
		return d.reduceID()
	}
	return d.elemAt(len(d.stack) - 1)
}

// curFrame is the frame curElem's ID renders as, known without minting it.
func (d *Detector) curFrame() cilk.FrameID {
	if d.inReduce {
		return d.reduceFrame
	}
	return d.top().id
}

// race reports a determinacy race at a between the prior access by
// element prior and the executing strand's access, rendering it only if
// the report keeps it.
func (d *Detector) race(a mem.Addr, prior dsu.Elem, priorOp, op core.AccessOp, relation string) {
	if !d.report.Admit(core.Determinacy, a, "", d.lin.Frame(int32(prior)), d.curFrame()) {
		return
	}
	ev := d.writerEv
	if priorOp == core.OpRead {
		ev = d.readerEv
	}
	second := d.lin.Access(int32(d.curElem()), op)
	second.ViewAware, second.ViewOp, second.VID = d.vaDepth > 0, d.vaOp, cilk.ViewID(d.currentVID())
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
	if len(d.stack) == 0 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, f.ID, "memory access before any frame entered"))
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
	if len(d.stack) == 0 {
		panic(core.Violatef(d.layer, streamerr.KindOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if d.vaDepth == 0 {
		d.storeOblivious(a)
	} else {
		d.storeAware(a)
	}
}

func (d *Detector) loadOblivious(a mem.Addr) {
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None && d.bags.Of(w).Kind == kindP {
		d.race(a, w, core.OpWrite, core.OpRead, "writer in P-bag")
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.bags.Of(r).Kind == kindS {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeOblivious(a mem.Addr) {
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.bags.Of(r).Kind == kindP {
		d.race(a, r, core.OpRead, core.OpWrite, "reader in P-bag")
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.bags.Of(w).Kind == kindP {
		d.race(a, w, core.OpWrite, core.OpWrite, "writer in P-bag")
	}
	if w == dsu.None || d.bags.Of(w).Kind == kindS {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) loadAware(a mem.Addr) {
	vid := d.currentVID()
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None {
		if b := d.bags.Of(w); b.Kind == kindP && b.View != vid {
			d.race(a, w, core.OpWrite, core.OpRead, "writer on parallel view")
		}
	}
	r := dsu.Elem(d.reader.Get(a))
	if r == dsu.None || d.bags.Of(r).Kind == kindS ||
		(d.inReduce && d.bags.Of(r).View == vid) {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeAware(a mem.Addr) {
	vid := d.currentVID()
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None {
		if b := d.bags.Of(r); b.Kind == kindP && b.View != vid {
			d.race(a, r, core.OpRead, core.OpWrite, "reader on parallel view")
		}
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None {
		if b := d.bags.Of(w); b.Kind == kindP && b.View != vid {
			d.race(a, w, core.OpWrite, core.OpWrite, "writer on parallel view")
		}
	}
	if w == dsu.None || d.bags.Of(w).Kind == kindS ||
		(d.inReduce && d.bags.Of(w).View == vid) {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider: the disjoint-set accounting behind
// the O((T+Mτ)·α(v,v)) bound of Theorem 5. Elems counts the minted IDs.
func (d *Detector) Stats() core.Stats {
	elems, finds, unions := d.bags.Stats()
	return core.Stats{Elems: elems, Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts {
	c := d.counts
	c.BagOps = d.bags.Ops()
	return c
}
