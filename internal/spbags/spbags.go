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

type bag struct {
	kind bagKind
	root dsu.Elem
}

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), with the bags embedded: a returning frame leaves both
// empty, so no forest payload points into a parked record.
type frameRec struct {
	id    cilk.FrameID
	label string
	elem  dsu.Elem
	s     bag
	p     bag
}

// Detector runs SP-bags over the cilk event stream. Create one per run.
type Detector struct {
	cilk.Empty

	forest  *dsu.Forest
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
		forest:   dsu.NewForest(256),
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

func (d *Detector) addToBag(b *bag, e dsu.Elem) {
	d.counts.BagOps++
	if b.root == dsu.None {
		b.root = e
		d.forest.SetPayload(e, b)
		return
	}
	b.root = d.forest.Union(b.root, e)
}

func (d *Detector) unionInto(dst, src *bag) {
	if src.root == dsu.None {
		return
	}
	d.counts.BagOps++
	if dst.root == dsu.None {
		dst.root = src.root
		d.forest.SetPayload(src.root, dst)
	} else {
		dst.root = d.forest.Union(dst.root, src.root)
	}
	src.root = dsu.None
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
	rec.id, rec.label = f.ID, f.Label
	rec.s = bag{kind: kindS, root: dsu.None}
	rec.p = bag{kind: kindP, root: dsu.None}
	rec.elem = d.forest.MakeSet(nil)
	d.addToBag(&rec.s, rec.elem)
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
	if grec.p.root != dsu.None {
		panic(core.Violatef("sp-bags", core.StreamState, g.ID,
			"frame %v returned with a non-empty P bag (missing sync)", g.ID))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if g.Spawned {
		d.unionInto(&frec.p, &grec.s)
	} else {
		d.unionInto(&frec.s, &grec.s)
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
	d.unionInto(&rec.s, &rec.p)
}

func (d *Detector) bagOf(e dsu.Elem) *bag {
	return d.forest.Payload(e).(*bag)
}

func (d *Detector) access(op core.AccessOp) core.Access {
	e := int32(d.current.elem)
	return core.Access{Frame: d.current.id, Label: d.current.label, Path: d.lin.Path(e), Op: op}
}

func (d *Detector) prior(e dsu.Elem, op core.AccessOp) core.Access {
	return core.Access{
		Frame: d.lin.Frame(int32(e)), Label: d.lin.Label(int32(e)),
		Path: d.lin.Path(int32(e)), Op: op,
	}
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
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None {
		if d.bagOf(w).kind == kindP {
			d.report.Add(core.Race{
				Kind: core.Determinacy, Addr: a,
				First:  d.prior(w, core.OpWrite),
				Second: d.access(core.OpRead),
				Prov:   d.prov(d.writerEv.Get(a), "writer in P-bag"),
			})
		}
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.bagOf(r).kind == kindS {
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
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.bagOf(r).kind == kindP {
		d.report.Add(core.Race{
			Kind: core.Determinacy, Addr: a,
			First:  d.prior(r, core.OpRead),
			Second: d.access(core.OpWrite),
			Prov:   d.prov(d.readerEv.Get(a), "reader in P-bag"),
		})
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.bagOf(w).kind == kindP {
		d.report.Add(core.Race{
			Kind: core.Determinacy, Addr: a,
			First:  d.prior(w, core.OpWrite),
			Second: d.access(core.OpWrite),
			Prov:   d.prov(d.writerEv.Get(a), "writer in P-bag"),
		})
	}
	if w == dsu.None || d.bagOf(w).kind == kindS {
		d.writer.Set(a, int32(rec.elem))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// prov assembles a Provenance for a race firing at the current event
// against a prior access recorded in an ordinal shadow.
func (d *Detector) prov(firstEv int32, relation string) core.Provenance {
	return core.Provenance{FirstEvent: int64(firstEv), SecondEvent: d.events, Relation: relation}
}

// Stats implements core.StatsProvider.
func (d *Detector) Stats() core.Stats {
	finds, unions := d.forest.Stats()
	return core.Stats{Elems: d.forest.Len(), Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts { return d.counts }
