package depa

import (
	"runtime"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// noStrand is the shadow-space sentinel: no strand has accessed the
// location yet.
const noStrand int32 = -1

// access ops in the log.
const (
	opLoad uint8 = iota
	opStore
)

// strandRec is one strand of the computation: its timestamp and the
// lineage element of the Cilk function instantiation executing it (race
// reports attribute accesses to frames, exactly as SP-bags does).
type strandRec struct {
	ts    Timestamp
	frame int32
}

// entry is one logged access — or, thanks to the coalescing fast path, a
// run of count identical consecutive accesses by one strand. Runs are
// safe to collapse because nothing else the detector observes happens
// between the repeats: the strand's previous logged event was the same
// (addr, op), so every repeat sees identical shadow state and identical
// verdicts, and the repeats occupy consecutive event ordinals ord..ord+count-1.
type entry struct {
	addr   mem.Addr
	ord    int64
	strand int32
	count  int32
	op     uint8
}

// frameMeta tracks one open Cilk function's identity: the frame ID and
// label for stream-order diagnostics and the lineage element race
// reports attribute accesses to. The fork-path/depth arithmetic lives
// in the Cursor (cursor.go), which the detector advances in lockstep
// with this stack.
type frameMeta struct {
	id    cilk.FrameID
	label string
	elem  int32
}

// ParallelStats accounts for the parallel detection machinery: how many
// shards (or live workers) ran, how many shard result sets were merged at
// the join, and how much of the access stream the lock-free coalescing
// fast path absorbed before it ever reached a shadow lookup.
type ParallelStats struct {
	Workers      int
	ShardMerges  int64
	FastPathHits int64 // accesses absorbed by coalescing (never individually logged)
	Accesses     int64 // total instrumented accesses observed
}

// FastPathRate is the fraction of accesses the fast path absorbed.
func (p ParallelStats) FastPathRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.FastPathHits) / float64(p.Accesses)
}

// ParallelStatsProvider is implemented by the depa detectors; the report
// layer uses it to fill the schema's parallel section and raderd feeds
// its rader_depa_* metrics from it.
type ParallelStatsProvider interface {
	ParallelStats() ParallelStats
}

// Detector is the depa race detector in replay form: it consumes the same
// five events SP-bags consumes (FrameEnter, FrameReturn, Sync, Load,
// Store), reconstructs strand timestamps from the stream, logs accesses
// per strand, and defers the shadow-space checks to a detection phase
// sharded by shadow page across Shards goroutines. Its verdicts — race
// set, dedup counts, and event ordinals — are byte-identical to SP-bags'
// on every stream (TestDepaSPBagsParity): both algorithms answer the same
// question, "is the prior recorded access logically parallel to the
// current strand", SP-bags through bag membership and depa through
// timestamp comparison.
//
// Create one per run; Report finalizes on first call.
type Detector struct {
	cilk.Empty

	// Shards is the number of detection goroutines the finalize phase
	// fans out to (0 = GOMAXPROCS). The verdict is byte-identical for
	// every value: shards partition the address space by shadow page and
	// candidate races merge back in serial event order.
	Shards int

	// Trace, when set, collects rader_depa_* spans for the finalize
	// phase, one lane per shard.
	Trace *obs.Trace

	stack    []frameMeta
	cursor   Cursor
	lin      core.Lineage
	strands  []strandRec
	entries  []entry
	report   core.Report
	counts   obs.EventCounts
	events   int64 // ordinal of the event being processed (1-based)
	nextElem int32 // dense lineage element IDs, one per FrameEnter

	finalized bool
	stats     ParallelStats
}

// New returns a fresh depa detector.
func New() *Detector {
	return &Detector{}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "depa" }

// Report implements core.Detector. The first call runs the sharded
// detection phase over the access log; later calls return the same
// report.
func (d *Detector) Report() *core.Report {
	d.finalize()
	return &d.report
}

// ParallelStats implements ParallelStatsProvider (meaningful after the
// report has been finalized).
func (d *Detector) ParallelStats() ParallelStats {
	d.finalize()
	return d.stats
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts { return d.counts }

func (d *Detector) top() frameMeta { return d.stack[len(d.stack)-1] }

// newStrand registers the cursor's current position as a fresh strand,
// attributed to the top frame's lineage element, and returns its ID.
func (d *Detector) newStrand() int32 {
	id := int32(len(d.strands))
	d.strands = append(d.strands, strandRec{ts: d.cursor.Now(), frame: d.top().elem})
	return id
}

// curStrand is the strand executing now: strands are registered at every
// control event, so the newest strand belongs to the top frame's cursor.
func (d *Detector) curStrand() int32 { return int32(len(d.strands)) - 1 }

// FrameEnter starts the new function's first strand: a called child
// extends the caller's serial chain one level deeper; a spawned child
// descends the branch-0 side of a fresh fork at the parent's depth.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	meta := frameMeta{id: f.ID, label: f.Label, elem: d.nextElem}
	d.nextElem++
	parent := core.NoParent
	if len(d.stack) > 0 {
		parent = d.top().elem
	}
	d.lin.Add(meta.elem, f.ID, f.Label, parent)
	d.stack = append(d.stack, meta)
	d.cursor.Enter(f.Spawned)
	d.newStrand()
}

// FrameReturn resumes the parent: after a spawned child it moves to the
// continuation branch of the child's fork; after a called child it
// continues the shared serial chain below the child's final depth. Either
// way the child's depths fold into the parent's sync block maximum, so
// the next Sync lands strictly after everything the block ran.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("depa", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := d.top()
	if grec.id != g.ID {
		panic(core.Violatef("depa", core.StreamOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	d.stack = d.stack[:len(d.stack)-1]
	d.cursor.Return()
	d.newStrand()
}

// Sync joins the block: the fork path pops back to the frame's base (all
// the block's forks are closed) and the post-sync strand sits one level
// below everything the block executed.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("depa", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	d.cursor.Sync()
	d.newStrand()
}

// logAccess appends to the access log, or bumps the count of the last
// entry when this access repeats it — the lock-free fast path for
// strand-local hot loops. The match is exact: same strand, address and
// op with nothing logged in between, so the repeats are consecutive
// events of one strand and collapse losslessly (see entry).
func (d *Detector) logAccess(f *cilk.Frame, a mem.Addr, op uint8) {
	if len(d.stack) == 0 {
		panic(core.Violatef("depa", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	s := d.curStrand()
	if n := len(d.entries); n > 0 {
		if last := &d.entries[n-1]; last.strand == s && last.addr == a && last.op == op {
			last.count++
			d.stats.FastPathHits++
			return
		}
	}
	d.entries = append(d.entries, entry{addr: a, ord: d.events, strand: s, count: 1, op: op})
}

// Load implements the read rule (checked at finalize): a race iff the
// last writer is parallel with the reading strand.
func (d *Detector) Load(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Loads++
	d.logAccess(f, a, opLoad)
}

// Store implements the write rule (checked at finalize): a race iff the
// last reader or last writer is parallel with the writing strand.
func (d *Detector) Store(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Stores++
	d.logAccess(f, a, opStore)
}

// finalize runs the sharded detection phase once.
func (d *Detector) finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	shards := d.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	d.stats.Workers = shards
	d.stats.Accesses = int64(d.counts.Loads + d.counts.Stores)
	runDetection(d.entries, d.strands, &d.lin, shards, d.Trace, &d.report)
	d.stats.ShardMerges += int64(shards)
	// Two shadow reads per log entry, not per access: the coalescing fast
	// path is precisely what keeps repeats away from the shadow space.
	d.counts.ShadowLookups += 2 * uint64(len(d.entries))
}

// runDetection is the shared detection tail of both depa modes: shard the
// log, merge the candidates back into serial order, and fold them into
// the report.
func runDetection(entries []entry, strands []strandRec, lin *core.Lineage, shards int, tr *obs.Trace, rp *core.Report) {
	span := tr.Start("rader_depa_finalize")
	pending := detectSharded(entries, strands, lin, shards, tr)
	for _, p := range mergePending(pending) {
		for i := int32(0); i < p.count; i++ {
			rp.Add(p.race)
		}
	}
	span.Arg("shards", shards).Arg("entries", len(entries)).
		Arg("races", rp.Distinct()).End()
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)
