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
// amortized O(alpha). A frame's ID enters the forest only when a reader
// record or a rendered race first needs it (elemAt); until then its SS bag
// just holds its place. A shadow space maps every reducer h to reader(h),
// the function that last read h, together with the spawn count it read at.
// By Lemmas 2 and 3, the reads at strands u then v have equal peer sets
// iff reader(h) is found in an SS or SP bag and the spawn counts match;
// the detector reports a view-read race otherwise (Theorem 4: it reports a
// race iff one exists). Total cost is O(T·alpha(x,x)) for a program
// running in time T with x reducers (Theorem 1).
package peerset

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/obs"
	"repro/internal/streamerr"
)

// The kinds of Peer-Set's bags.
const (
	kindSS = iota
	kindSP
	kindP
)

// frameRec is one frame's state. Records are reused by depth
// (core.PushRecord), and so are their three bags: a returning frame leaves
// all three empty, so no forest payload names a parked record's bag.
type frameRec struct {
	id        cilk.FrameID
	label     string
	elem      dsu.Elem // dsu.None until elemAt mints it
	ls        int      // local-spawn count
	as        int      // ancestor-spawn count
	ss, sp, p int32    // bag-table indices
	slotted   bool     // ss, sp and p are allocated
}

type readerInfo struct {
	elem  dsu.Elem
	frame cilk.FrameID
	s     int   // spawn count of the reader at the read
	event int64 // detector-relative ordinal of the read, for provenance
}

// Detector runs the Peer-Set algorithm over the cilk event stream. It must
// be driven by exactly one cilk.Run; create a fresh Detector per run.
type Detector struct {
	cilk.Empty // Peer-Set ignores memory accesses and view events

	bags   dsu.Bags
	stack  []*frameRec
	reader map[*cilk.Reducer]readerInfo
	lin    core.Lineage
	report core.Report

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh Peer-Set detector.
func New() *Detector {
	return &Detector{reader: make(map[*cilk.Reducer]readerInfo)}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "peer-set" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

func (d *Detector) top() *frameRec { return d.stack[len(d.stack)-1] }

// FrameEnter implements the "F calls or spawns G" case of Figure 3.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	as := 0
	if len(d.stack) > 0 {
		parent := d.top()
		if f.Spawned {
			parent.ls++
			// A new spawn changes the peer set of F's subsequent strands:
			// descendants matching the previous continuation no longer
			// match any strand of F.
			d.bags.Union(parent.p, parent.sp)
		}
		as = parent.as + parent.ls
	}
	var rec *frameRec
	d.stack, rec = core.PushRecord(d.stack)
	rec.id, rec.label, rec.elem = f.ID, f.Label, dsu.None
	rec.ls, rec.as = 0, as
	if !rec.slotted {
		rec.ss, rec.sp, rec.p = d.bags.New(kindSS, 0), d.bags.New(kindSP, 0), d.bags.New(kindP, 0)
		rec.slotted = true
	}
	d.bags.Hold(rec.ss) // G.SS = MakeBag(G)
}

// elemAt returns the ID of the frame at stack depth i, minting it on first
// use. FrameEnter only holds the ID's place in the frame's SS bag, and a
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
		rec.elem = d.bags.Mint(rec.ss)
		d.lin.Add(int32(rec.elem), rec.id, rec.label, parent)
	}
	return rec.elem
}

// FrameReturn implements the "G returns to F" case of Figure 3.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("peerset", streamerr.KindOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef("peerset", streamerr.KindOrder, g.ID,
			"event order violation: returning %v, top is %v", g.ID, grec.id))
	}
	// Functions sync before returning, which empties G.SP; only a stream
	// that lost a Sync gets here with it full.
	if !d.bags.At(grec.sp).Empty() {
		panic(core.Violatef("peerset", streamerr.KindState, g.ID,
			"frame %v returned with a non-empty SP bag (missing sync)", g.ID))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if frec.id != f.ID {
		panic(core.Violatef("peerset", streamerr.KindOrder, f.ID,
			"parent mismatch on return: returning to %v, below top is %v", f.ID, frec.id))
	}
	d.bags.Union(frec.p, grec.p)
	switch {
	case g.Spawned:
		// Everything under a spawned child is parallel to F's later
		// strands' peers differently — G's descendants can never share a
		// peer set with a strand of F.
		d.bags.Union(frec.p, grec.ss)
	case frec.ls == 0:
		// Called with no outstanding spawns: G's first strand has the
		// same peer set as F's first strand.
		d.bags.Union(frec.ss, grec.ss)
	default:
		// Called with outstanding spawns: G's first strand matches F's
		// last executed continuation strand.
		d.bags.Union(frec.sp, grec.ss)
	}
}

// Sync implements the "F syncs" case of Figure 3.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("peerset", streamerr.KindOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	if rec.id != f.ID {
		panic(core.Violatef("peerset", streamerr.KindOrder, f.ID,
			"sync frame mismatch: syncing %v, top is %v", f.ID, rec.id))
	}
	rec.ls = 0
	d.bags.Union(rec.p, rec.sp)
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
		panic(core.Violatef("peerset", streamerr.KindOrder, f.ID, "reducer-read before any frame entered"))
	}
	rec := d.top()
	if rec.id != f.ID {
		panic(core.Violatef("peerset", streamerr.KindOrder, f.ID,
			"read frame mismatch: reading in %v, top is %v", f.ID, rec.id))
	}
	s := rec.as + rec.ls
	d.counts.ShadowLookups++
	if prev, ok := d.reader[r]; ok {
		if kind := d.bags.Of(prev.elem).Kind; kind == kindP || prev.s != s {
			d.race(r, prev, rec, kind)
		}
	}
	elem := d.elemAt(len(d.stack) - 1)
	if rec.ls > 0 {
		// A read at a continuation strand. F's own ID sits in F.SS, which
		// tracks F's first strand, not this one: record a fresh element in
		// F.SP instead, which follows this strand's peer set into F.P at
		// F's next spawn or sync. It renders F's path.
		elem = d.bags.Add(rec.sp)
		d.lin.AddCopy(int32(elem), int32(rec.elem))
	}
	d.reader[r] = readerInfo{elem: elem, frame: rec.id, s: s, event: d.events}
}

// race reports a view-read race on r between the read prev recorded and
// the current read in rec, rendering it only if the report keeps it.
// kind is the kind of the bag prev's reader sits in.
func (d *Detector) race(r *cilk.Reducer, prev readerInfo, rec *frameRec, kind int8) {
	if !d.report.Admit(core.ViewRead, 0, r.Name, prev.frame, rec.id) {
		return
	}
	// Lemma 2 vs Lemma 3: the prior reader either fell into a P bag (some
	// ancestor spawned past it) or sits in an SS/SP bag with a different
	// spawn count; name whichever rule fired.
	relation := "spawn-count mismatch"
	if kind == kindP {
		relation = "reader in P-bag"
	}
	d.report.Keep(core.Race{
		Kind:    core.ViewRead,
		Reducer: r.Name,
		First:   d.lin.Access(int32(prev.elem), core.OpReducerRead),
		Second:  d.lin.Access(int32(d.elemAt(len(d.stack)-1)), core.OpReducerRead),
		Prov:    core.Provenance{FirstEvent: prev.event, SecondEvent: d.events, Relation: relation},
	})
}

// The algorithm is oblivious to raw memory traffic; the embedded cilk.Empty
// provides the no-op Load/Store and view-aware handlers.
var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider: the disjoint-set accounting behind
// the O(T·α(x,x)) bound of Theorem 1. Elems counts the minted IDs.
func (d *Detector) Stats() core.Stats {
	elems, finds, unions := d.bags.Stats()
	return core.Stats{Elems: elems, Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider. Peer-Set is oblivious
// to memory traffic and view boundaries, so only the control and reducer
// classes (and bag/shadow bookkeeping) accumulate.
func (d *Detector) EventCounts() obs.EventCounts {
	c := d.counts
	c.BagOps = d.bags.Ops()
	return c
}
