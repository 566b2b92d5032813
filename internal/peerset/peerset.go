// Package peerset implements the Peer-Set algorithm (§3 of the paper),
// which executes a Cilk computation serially and detects view-read races:
// pairs of reducer-reads performed at strands with different peer sets,
// where the peer set of a strand u is the set of strands logically parallel
// with u.
//
// Following Figure 3, the algorithm maintains, for each Cilk function
// instantiation F on the call stack:
//
//   - F.ls, the local-spawn count: spawns F has executed since it last
//     synced;
//   - F.as, the ancestor-spawn count: the total spawns each ancestor of F
//     has performed since that ancestor last synced;
//   - F.SS, a bag with the IDs of F's completed descendants whose peer set
//     equals that of F's first strand;
//   - F.SP, a bag with the IDs of F's completed descendants whose peer set
//     equals that of the last continuation strand executed in F;
//   - F.P, a bag with the IDs of all other completed descendants of F.
//
// Bags live in a disjoint-set forest (package dsu), so each operation costs
// amortized O(alpha). A shadow space maps every reducer h to reader(h), the
// function that last read h, together with the spawn count it read at. By
// Lemmas 2 and 3, the reads at strands u then v have equal peer sets iff
// reader(h) is found in an SS or SP bag and the spawn counts match; the
// detector reports a view-read race otherwise (Theorem 4: it reports a race
// iff one exists). Total cost is O(T·alpha(x,x)) for a program running in
// time T with x reducers (Theorem 1).
package peerset

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/obs"
)

type bagKind int8

const (
	kindSS bagKind = iota
	kindSP
	kindP
)

// bag is one Peer-Set bag: a possibly-empty set in the disjoint-set forest.
// The forest payload of the set's root points back at the bag, so finding
// the bag containing a frame is a Find plus one pointer chase.
type bag struct {
	kind bagKind
	root dsu.Elem // dsu.None when empty
}

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), with the bags embedded: a returning frame leaves all
// three empty, so no forest payload points into a parked record.
type frameRec struct {
	id    cilk.FrameID
	label string
	elem  dsu.Elem
	ls    int // local-spawn count
	as    int // ancestor-spawn count
	ss    bag
	sp    bag
	p     bag
}

type readerInfo struct {
	elem  dsu.Elem
	frame cilk.FrameID
	label string
	s     int   // spawn count of the reader at the read
	event int64 // detector-relative ordinal of the read, for provenance
}

// Detector runs the Peer-Set algorithm over the cilk event stream. It must
// be driven by exactly one cilk.Run; create a fresh Detector per run.
type Detector struct {
	cilk.Empty // Peer-Set ignores memory accesses and view events

	forest *dsu.Forest
	stack  []*frameRec
	reader map[*cilk.Reducer]readerInfo
	lin    core.Lineage
	report core.Report

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh Peer-Set detector.
func New() *Detector {
	return &Detector{
		forest: dsu.NewForest(256),
		reader: make(map[*cilk.Reducer]readerInfo),
	}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "peer-set" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

// addToBag inserts a fresh forest element for rec into b.
func (d *Detector) addToBag(b *bag, e dsu.Elem) {
	d.counts.BagOps++
	if b.root == dsu.None {
		b.root = e
		d.forest.SetPayload(e, b)
		return
	}
	b.root = d.forest.Union(b.root, e)
}

// unionInto unions src's contents into dst and empties src.
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

// FrameEnter implements the "F calls or spawns G" case of Figure 3.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	as, parentElem := 0, core.NoParent
	if len(d.stack) > 0 {
		parent := d.top()
		if f.Spawned {
			parent.ls++
			// A new spawn changes the peer set of F's subsequent strands:
			// descendants matching the previous continuation no longer
			// match any strand of F.
			d.unionInto(&parent.p, &parent.sp)
		}
		as = parent.as + parent.ls
		parentElem = int32(parent.elem)
	}
	var rec *frameRec
	d.stack, rec = core.PushRecord(d.stack)
	rec.id, rec.label = f.ID, f.Label
	rec.ls, rec.as = 0, as
	rec.ss = bag{kind: kindSS, root: dsu.None}
	rec.sp = bag{kind: kindSP, root: dsu.None}
	rec.p = bag{kind: kindP, root: dsu.None}
	rec.elem = d.forest.MakeSet(nil)
	d.addToBag(&rec.ss, rec.elem) // G.SS = MakeBag(G)
	d.lin.Add(int32(rec.elem), f.ID, f.Label, parentElem)
}

// FrameReturn implements the "G returns to F" case of Figure 3.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("peerset", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef("peerset", core.StreamOrder, g.ID,
			"event order violation: returning %v, top is %v", g.ID, grec.id))
	}
	// Functions sync before returning, which empties G.SP; only a stream
	// that lost a Sync gets here with it full.
	if grec.sp.root != dsu.None {
		panic(core.Violatef("peerset", core.StreamState, g.ID,
			"frame %v returned with a non-empty SP bag (missing sync)", g.ID))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if frec.id != f.ID {
		panic(core.Violatef("peerset", core.StreamOrder, f.ID,
			"parent mismatch on return: returning to %v, below top is %v", f.ID, frec.id))
	}
	d.unionInto(&frec.p, &grec.p)
	switch {
	case g.Spawned:
		// Everything under a spawned child is parallel to F's later
		// strands' peers differently — G's descendants can never share a
		// peer set with a strand of F.
		d.unionInto(&frec.p, &grec.ss)
	case frec.ls == 0:
		// Called with no outstanding spawns: G's first strand has the
		// same peer set as F's first strand.
		d.unionInto(&frec.ss, &grec.ss)
	default:
		// Called with outstanding spawns: G's first strand matches F's
		// last executed continuation strand.
		d.unionInto(&frec.sp, &grec.ss)
	}
}

// Sync implements the "F syncs" case of Figure 3.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("peerset", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	if rec.id != f.ID {
		panic(core.Violatef("peerset", core.StreamOrder, f.ID,
			"sync frame mismatch: syncing %v, top is %v", f.ID, rec.id))
	}
	rec.ls = 0
	d.unionInto(&rec.p, &rec.sp)
}

// ReducerCreate treats reducer creation as a reducer-read (§3 defines
// reducer-reads as creating, resetting, or querying the reducer).
func (d *Detector) ReducerCreate(f *cilk.Frame, r *cilk.Reducer) {
	d.events++
	d.counts.ReducerCreates++
	d.readReducer(f, r)
}

// ReducerRead handles set_value and get_value reducer-reads.
func (d *Detector) ReducerRead(f *cilk.Frame, r *cilk.Reducer) {
	d.events++
	d.counts.ReducerReads++
	d.readReducer(f, r)
}

// readReducer implements the "F reads reducer h" case of Figure 3.
func (d *Detector) readReducer(f *cilk.Frame, r *cilk.Reducer) {
	if len(d.stack) == 0 {
		panic(core.Violatef("peerset", core.StreamOrder, f.ID, "reducer-read before any frame entered"))
	}
	rec := d.top()
	if rec.id != f.ID {
		panic(core.Violatef("peerset", core.StreamOrder, f.ID,
			"read frame mismatch: reading in %v, top is %v", f.ID, rec.id))
	}
	s := rec.as + rec.ls
	d.counts.ShadowLookups++
	if prev, ok := d.reader[r]; ok {
		b := d.forest.Payload(prev.elem).(*bag)
		if b.kind == kindP || prev.s != s {
			// Lemma 2 vs Lemma 3: the prior reader either fell into a P bag
			// (some ancestor spawned past it) or sits in an SS/SP bag with a
			// different spawn count; name whichever rule fired.
			relation := "spawn-count mismatch"
			if b.kind == kindP {
				relation = "reader in P-bag"
			}
			d.report.Add(core.Race{
				Kind:    core.ViewRead,
				Reducer: r.Name,
				First: core.Access{
					Frame: prev.frame, Label: prev.label,
					Path: d.lin.Path(int32(prev.elem)), Op: core.OpReducerRead,
				},
				Second: core.Access{
					Frame: rec.id, Label: rec.label,
					Path: d.lin.Path(int32(rec.elem)), Op: core.OpReducerRead,
				},
				Prov: core.Provenance{
					FirstEvent:  prev.event,
					SecondEvent: d.events,
					Relation:    relation,
				},
			})
		}
	}
	elem := rec.elem
	if rec.ls > 0 {
		// A read at a continuation strand. F's own ID sits in F.SS, which
		// tracks F's first strand, not this one: record a fresh element in
		// F.SP instead, which follows this strand's peer set into F.P at
		// F's next spawn or sync. It renders F's path.
		elem = d.forest.MakeSet(nil)
		d.addToBag(&rec.sp, elem)
		d.lin.AddCopy(int32(elem), int32(rec.elem))
	}
	d.reader[r] = readerInfo{elem: elem, frame: rec.id, label: rec.label, s: s, event: d.events}
}

// The algorithm is oblivious to raw memory traffic; the embedded cilk.Empty
// provides the no-op Load/Store and view-aware handlers.
var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider: the disjoint-set accounting behind
// the O(T·α(x,x)) bound of Theorem 1.
func (d *Detector) Stats() core.Stats {
	finds, unions := d.forest.Stats()
	return core.Stats{Elems: d.forest.Len(), Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider. Peer-Set is oblivious
// to memory traffic and view boundaries, so only the control and reducer
// classes (and bag/shadow bookkeeping) accumulate.
func (d *Detector) EventCounts() obs.EventCounts { return d.counts }
