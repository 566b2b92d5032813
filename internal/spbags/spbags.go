// Package spbags implements the Feng–Leiserson SP-bags algorithm, the
// classic serial determinacy-race detector for Cilk programs that the
// paper's SP+ algorithm extends (§5). SP-bags maintains, for each Cilk
// function F on the call stack, an S bag (IDs of F's completed descendants
// that are logically in series with the currently executing strand, plus F
// itself) and a P bag (IDs of completed descendants logically in parallel
// with it), in a disjoint-set forest. Two shadow spaces, reader and writer,
// record the last function to read and write each location; by
// pseudotransitivity of ‖, a single reader suffices.
//
// SP-bags has no notion of reducer views: it treats view-aware accesses
// like any other access. On programs that use reducers it therefore loses
// the paper's guarantees — it reports "races" between strands that share a
// view (false positives, see TestFig5FalsePositive in the spplus package)
// and its verdicts on reduce strands depend on bookkeeping it does not
// have. It is included as the baseline the evaluation compares against.
package spbags

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

// bag is one SP-bags bag: a possibly-empty set in the disjoint-set
// forest. The forest payload of the set's root is the bag's index in the
// detector's bag table.
type bag struct {
	kind bagKind
	root dsu.Elem // dsu.None when empty
}

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), and so are their two bags: a returning frame leaves
// both empty, so no forest payload names a parked record's bag.
type frameRec struct {
	id      cilk.FrameID
	elem    dsu.Elem
	s, p    int32 // bag-table indices
	slotted bool  // s and p are allocated
}

// Detector runs SP-bags over the cilk event stream. Create one per run.
type Detector struct {
	cilk.Empty

	forest  dsu.Forest
	bags    []bag
	stack   []*frameRec
	reader  *mem.Shadow
	writer  *mem.Shadow
	lin     core.Lineage
	report  core.Report
	current *frameRec

	// readerEv/writerEv shadow the same locations with the detector-relative
	// event ordinal of the recorded access, so a race report can point back
	// into the stream. Ordinals are truncated to int32 — adequate for any
	// trace the shadow space itself can hold.
	readerEv *mem.Shadow
	writerEv *mem.Shadow

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh SP-bags detector.
func New() *Detector {
	return &Detector{
		reader:   mem.NewShadow(int32(dsu.None)),
		writer:   mem.NewShadow(int32(dsu.None)),
		readerEv: mem.NewShadow(0),
		writerEv: mem.NewShadow(0),
	}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "sp-bags" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

func (d *Detector) newBag(kind bagKind) int32 {
	d.bags = append(d.bags, bag{kind: kind, root: dsu.None})
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

// FrameEnter pushes S_G = {G} and P_G = {} for the new function G.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	parent := core.NoParent
	if len(d.stack) > 0 {
		parent = int32(d.top().elem)
	}
	var rec *frameRec
	d.stack, rec = core.PushRecord(d.stack)
	rec.id = f.ID
	if !rec.slotted {
		rec.s, rec.p, rec.slotted = d.newBag(kindS), d.newBag(kindP), true
	}
	rec.elem = d.forest.MakeSet()
	d.addToBag(rec.s, rec.elem)
	d.lin.Add(int32(rec.elem), f.ID, f.Label, parent)
	d.current = rec
}

// FrameReturn merges the child's bags into the parent: a spawned child's S
// bag becomes parallel work (into P_F); a called child's S bag stays serial
// (into S_F). The child synced before returning, so its P bag is empty; a
// stream that lost that Sync is rejected.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("sp-bags", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef("sp-bags", core.StreamOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	if d.bags[grec.p].root != dsu.None {
		panic(core.Violatef("sp-bags", core.StreamState, g.ID,
			"frame %v returned with a non-empty P bag (missing sync)", g.ID))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if g.Spawned {
		d.unionInto(frec.p, grec.s)
	} else {
		d.unionInto(frec.s, grec.s)
	}
	d.current = frec
}

// Sync moves everything parallel into series: S_F ∪= P_F.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	d.unionInto(rec.s, rec.p)
}

func (d *Detector) kindOf(e dsu.Elem) bagKind { return d.bags[d.forest.Payload(e)].kind }

// race reports a determinacy race at a between the prior access by
// element prior and the current strand's access, rendering it only if
// the report keeps it.
func (d *Detector) race(a mem.Addr, prior dsu.Elem, priorOp, op core.AccessOp, relation string) {
	if !d.report.Admit(core.Determinacy, a, "", d.lin.Frame(int32(prior)), d.current.id) {
		return
	}
	ev := d.writerEv
	if priorOp == core.OpRead {
		ev = d.readerEv
	}
	d.report.Keep(core.Race{
		Kind: core.Determinacy, Addr: a,
		First:  d.lin.Access(int32(prior), priorOp),
		Second: d.lin.Access(int32(d.current.elem), op),
		Prov:   core.Provenance{FirstEvent: int64(ev.Get(a)), SecondEvent: d.events, Relation: relation},
	})
}

// Load implements the SP-bags read rule: a race iff the last writer is in
// a P bag; the reader shadow advances only when the previous reader is in
// an S bag (pseudotransitivity of ‖ makes one reader sufficient).
func (d *Detector) Load(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Loads++
	rec := d.current
	if rec == nil {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None && d.kindOf(w) == kindP {
		d.race(a, w, core.OpWrite, core.OpRead, "writer in P-bag")
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.kindOf(r) == kindS {
		d.reader.Set(a, int32(rec.elem))
		d.readerEv.Set(a, int32(d.events))
	}
}

// Store implements the SP-bags write rule: a race iff the last reader or
// last writer is in a P bag.
func (d *Detector) Store(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Stores++
	rec := d.current
	if rec == nil {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.kindOf(r) == kindP {
		d.race(a, r, core.OpRead, core.OpWrite, "reader in P-bag")
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.kindOf(w) == kindP {
		d.race(a, w, core.OpWrite, core.OpWrite, "writer in P-bag")
	}
	if w == dsu.None || d.kindOf(w) == kindS {
		d.writer.Set(a, int32(rec.elem))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider.
func (d *Detector) Stats() core.Stats {
	finds, unions := d.forest.Stats()
	return core.Stats{Elems: d.forest.Len(), Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts { return d.counts }
