// Package elide is the static elision pre-pass over recorded traces:
// it proves, per shadow address, that no logically-parallel conflicting
// access pair exists — using the depa (dag-depth, fork-path) timestamps
// of PR7 as the SP oracle — and produces a Plan that removes every
// access event to the proven-race-free addresses while leaving race
// reports byte-identical.
//
// The soundness argument has three legs:
//
//   - The criterion. An address is elidable iff the depa shadow
//     discipline (reader/writer singletons advanced under the
//     pseudotransitivity rule, exactly internal/depa's detection rules)
//     never fires on it: no access to it is logically parallel with a
//     prior conflicting access. SP-bags and depa fire races at exactly
//     these addresses; SP+ fires at a subset of them (verified
//     corpus-wide and fuzzed by FuzzElide); Peer-Set never consumes
//     Load/Store events at all. So no detector's race set mentions an
//     elided address.
//
//   - Isolation. Every detector keeps per-address shadow state and
//     evolves its control state (bags, labels, timestamps) from control
//     events only, so removing one address's accesses cannot change any
//     verdict at another address.
//
//   - Accounting. Detector-relative event ordinals (race provenance)
//     and the depa coalescing stats do shift when accesses disappear;
//     the Plan records exactly how (run-length-encoded elided ordinals
//     per detector ordinal space, plus the full-trace coalescing
//     counts) and FixupReport/FixupMulti restore the original values on
//     the filtered-trace document, making it byte-identical to the
//     full-trace document.
//
// Analyze decodes the trace once. Each distinct address gets a dense
// slot, and a 4-byte log entry per ordinal-counted event (the slot of
// an access, a sentinel for a control event) lets the elided ordinals
// be numbered after classification without a second replay.
//
// A Plan can be applied two ways with identical observable behaviour:
// materialize a filtered trace in the same CILKTRACE format (Filter,
// backed by trace.FilterAccesses) or replay the full trace under the
// Plan's address-range skip set (trace.ReplayAll), which every
// existing consumer supports unchanged.
package elide

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// access ops, mirroring internal/depa.
const (
	opLoad uint8 = iota
	opStore
)

// Event-log entries. An access logs its address's slot; a control event
// logs the sentinel of the ordinal spaces it counts in: space A
// ({FrameEnter, FrameReturn, Sync, Load, Store}: SP-bags, depa) and
// space B (A plus {Stolen, ReduceStart, ReduceEnd, ViewAwareBegin,
// ViewAwareEnd}: SP+). Slots stay below both sentinels.
const (
	logAB uint32 = math.MaxUint32     // FrameEnter, FrameReturn, Sync
	logB  uint32 = math.MaxUint32 - 1 // space-B-only control events
)

const (
	stateChunkBits = 8
	stateChunk     = 1 << stateChunkBits // slot states per chunk
	logChunk       = 1 << 13             // largest event-log chunk
)

// slotState is the classifier's shadow cell for one distinct address.
type slotState struct {
	reader, writer depa.Timestamp
	addr           mem.Addr
	accesses       int64 // loads and stores
	bytes          int64 // encoded bytes of those access records
	firstGen       int64 // strand generation of the first access
	hasReader      bool
	hasWriter      bool
	stored         bool // some access was a store
	racy           bool // a depa shadow rule fired: must keep
	multiStrand    bool // accessed from more than one strand
	outsideVA      bool // some access outside any view-op window
}

// classifier is the one pass over the stream: it reconstructs strand
// timestamps with a depa.Cursor and runs the depa shadow discipline per
// address, plus the bookkeeping the audit and the fixups need (strand
// generations, view-op windows, the event log, and an exact simulation
// of the depa detector's coalescing fast path on the full stream).
type classifier struct {
	cilk.Empty
	cursor  depa.Cursor
	ts      depa.Timestamp
	tsValid bool
	gen     int64 // strand generation: bumps at every control event
	vaDepth int

	// cells maps addresses to slots by open addressing with linear
	// probing: each cell holds a 32-bit hash fingerprint and slot+1, or
	// 0 when empty. Its length is a power of two and it is kept at most
	// half full, so with the key kept in the slot state an address costs
	// 24 to 40 bytes of table and key. The cells hold no pointers, and a
	// probe reads a slot state only on a fingerprint match.
	cells  []uint64
	shift  uint   // 64 - log2(len(cells))
	seed   uint64 // per-pass hash seed: crafted addresses cannot pile up
	states [][]slotState
	slots  uint32
	limit  uint32 // slots allowed; a slot must stay below the sentinels

	log  [][]uint32 // filled event-log chunks
	tail []uint32   // the chunk being filled

	accesses int64

	// full-trace simulation of depa's logAccess coalescing: a hit iff
	// the previous access (any address, whole stream) carried the same
	// (strand, addr, op).
	haveLast     bool
	lastGen      int64
	lastAddr     mem.Addr
	lastOp       uint8
	lastSlot     uint32
	fastPathHits int64
}

func newClassifier(limit uint32) *classifier {
	return &classifier{cells: make([]uint64, 16), shift: 64 - 4, seed: rand.Uint64(), limit: limit}
}

func (c *classifier) bump() {
	c.gen++
	c.tsValid = false
}

// record appends one event-log entry. Chunks double in size up to
// logChunk and are allocated whole, so no entry is ever copied.
func (c *classifier) record(e uint32) {
	if len(c.tail) == cap(c.tail) {
		if c.tail != nil {
			c.log = append(c.log, c.tail)
		}
		c.tail = make([]uint32, 0, min(max(2*cap(c.tail), 256), logChunk))
	}
	c.tail = append(c.tail, e)
}

// state returns slot s's shadow cell.
func (c *classifier) state(s uint32) *slotState {
	return &c.states[s>>stateChunkBits][s&(stateChunk-1)]
}

// hash mixes a with the pass's seed. The top bits pick a's home cell;
// the low 32 bits are the fingerprint its cell stores.
func (c *classifier) hash(a mem.Addr) uint64 {
	x := uint64(a) ^ c.seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>29
}

// slotOf returns a's slot, giving a first-seen address the next one.
func (c *classifier) slotOf(a mem.Addr) uint32 {
	h := c.hash(a)
	mask := uint64(len(c.cells) - 1)
	for i := h >> c.shift; ; i = (i + 1) & mask {
		e := c.cells[i]
		if e == 0 {
			return c.insert(a, h)
		}
		if uint32(e>>32) == uint32(h) {
			if s := uint32(e) - 1; c.state(s).addr == a {
				return s
			}
		}
	}
}

// insert gives a (with hash h) the next slot, growing the table first if
// the new entry would make it more than half full.
func (c *classifier) insert(a mem.Addr, h uint64) uint32 {
	s := c.slots
	if s == c.limit {
		panic(streamerr.Errorf("elide", streamerr.KindBudget,
			"trace has more than %d distinct addresses", c.limit))
	}
	if 2*(uint64(s)+1) > uint64(len(c.cells)) {
		c.cells = make([]uint64, 2*len(c.cells))
		c.shift--
		for t := uint32(0); t < s; t++ {
			c.place(c.hash(c.state(t).addr), t)
		}
	}
	c.place(h, s)
	// The first chunk grows by append; later ones are allocated whole
	// and never copied.
	ci := int(s >> stateChunkBits)
	if ci == len(c.states) {
		var chunk []slotState
		if ci > 0 {
			chunk = make([]slotState, 0, stateChunk)
		}
		c.states = append(c.states, chunk)
	}
	c.states[ci] = append(c.states[ci], slotState{addr: a, firstGen: c.gen})
	c.slots++
	return s
}

// place stores slot s, fingerprinted, in hash h's first empty cell.
func (c *classifier) place(h uint64, s uint32) {
	mask := uint64(len(c.cells) - 1)
	i := h >> c.shift
	for c.cells[i] != 0 {
		i = (i + 1) & mask
	}
	c.cells[i] = h<<32 | uint64(s+1)
}

// FrameEnter implements cilk.Hooks.
func (c *classifier) FrameEnter(f *cilk.Frame) {
	c.cursor.Enter(f.Spawned)
	c.bump()
	c.record(logAB)
}

// FrameReturn implements cilk.Hooks.
func (c *classifier) FrameReturn(g, f *cilk.Frame) {
	if c.cursor.Open() < 2 {
		panic(core.Violatef("elide", streamerr.KindOrder, g.ID,
			"return of frame %d with %d frames open", g.ID, c.cursor.Open()))
	}
	c.cursor.Return()
	c.bump()
	c.record(logAB)
}

// Sync implements cilk.Hooks.
func (c *classifier) Sync(f *cilk.Frame) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", streamerr.KindOrder, f.ID, "sync before any frame entered"))
	}
	c.cursor.Sync()
	c.bump()
	c.record(logAB)
}

// ContinuationStolen implements cilk.Hooks.
func (c *classifier) ContinuationStolen(f *cilk.Frame, vid cilk.ViewID) { c.record(logB) }

// ReduceStart implements cilk.Hooks.
func (c *classifier) ReduceStart(f *cilk.Frame, keep, die cilk.ViewID) { c.record(logB) }

// ReduceEnd implements cilk.Hooks.
func (c *classifier) ReduceEnd(f *cilk.Frame) { c.record(logB) }

// ViewAwareBegin implements cilk.Hooks.
func (c *classifier) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	c.vaDepth++
	c.record(logB)
}

// ViewAwareEnd implements cilk.Hooks.
func (c *classifier) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	if c.vaDepth > 0 {
		c.vaDepth--
	}
	c.record(logB)
}

// Load implements cilk.Hooks.
func (c *classifier) Load(f *cilk.Frame, a mem.Addr) { c.access(f, a, opLoad) }

// Store implements cilk.Hooks.
func (c *classifier) Store(f *cilk.Frame, a mem.Addr) { c.access(f, a, opStore) }

func (c *classifier) access(f *cilk.Frame, a mem.Addr, op uint8) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", streamerr.KindOrder, f.ID, "memory access before any frame entered"))
	}
	c.accesses++
	var s uint32
	if c.haveLast && c.lastAddr == a {
		s = c.lastSlot
		if c.lastGen == c.gen && c.lastOp == op {
			c.fastPathHits++
		} else {
			c.lastGen, c.lastOp = c.gen, op
		}
	} else {
		s = c.slotOf(a)
		c.haveLast, c.lastGen, c.lastAddr, c.lastOp, c.lastSlot = true, c.gen, a, op, s
	}
	c.record(s)
	if !c.tsValid {
		c.ts = c.cursor.Now()
		c.tsValid = true
	}
	st := c.state(s)
	st.accesses++
	st.bytes += int64(1 + uvarintLen(uint64(f.ID)) + uvarintLen(uint64(a)))
	if st.firstGen != c.gen {
		st.multiStrand = true
	}
	if c.vaDepth == 0 {
		st.outsideVA = true
	}
	// The depa shadow rules (internal/depa/finalize.go), streamed: the
	// reader/writer singletons advance only from none or a serial
	// predecessor, which pseudotransitivity of ∥ makes sufficient to
	// witness every racy address.
	switch op {
	case opLoad:
		if st.hasWriter && depa.Parallel(st.writer, c.ts) {
			st.racy = true
		}
		if !st.hasReader || !depa.Parallel(st.reader, c.ts) {
			st.reader, st.hasReader = c.ts, true
		}
	case opStore:
		st.stored = true
		if st.hasReader && depa.Parallel(st.reader, c.ts) {
			st.racy = true
		}
		if st.hasWriter && depa.Parallel(st.writer, c.ts) {
			st.racy = true
			return // a parallel writer never advances the writer shadow
		}
		st.writer, st.hasWriter = c.ts, true
	}
}

// Indices into classOrder.
const (
	clsStrandLocal = iota
	clsReadOnly
	clsSyncSerialized
	clsViewProtected
	clsMustKeep
)

// classOf is the audit taxonomy for one address, as an index into
// classOrder. Soundness rests only on racy → must-keep; the remaining
// classes explain *why* an address was provably race-free, in
// precedence order.
func classOf(st *slotState) int {
	switch {
	case st.racy:
		return clsMustKeep
	case !st.stored:
		return clsReadOnly
	case !st.multiStrand:
		return clsStrandLocal
	case !st.outsideVA:
		return clsViewProtected
	default:
		return clsSyncSerialized
	}
}

// uvarintLen is the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// runSink collects one ordinal space's elided ordinals as runs. With a
// nil runs slice it only counts the runs it would open.
type runSink struct {
	runs   []run
	opened int
	next   int64 // the ordinal that would extend the open run
	before int64 // elided ordinals so far
}

func (r *runSink) add(ord int64) {
	if r.opened > 0 && ord == r.next {
		if r.runs != nil {
			r.runs[len(r.runs)-1].count++
		}
	} else {
		r.opened++
		if r.runs != nil {
			r.runs = append(r.runs, run{start: ord, count: 1, before: r.before})
		}
	}
	r.next = ord + 1
	r.before++
}

// walkLog numbers the logged events in both ordinal spaces and feeds
// every elided access's ordinals to a and b.
func (c *classifier) walkLog(elided []bool, a, b *runSink) {
	var ordA, ordB int64
	for _, chunk := range c.log {
		for _, e := range chunk {
			ordB++
			switch {
			case e == logB:
			case e == logAB:
				ordA++
			default:
				ordA++
				if elided[e] {
					a.add(ordA)
					b.add(ordB)
				}
			}
		}
	}
}

// Plan is the result of analyzing one trace: which addresses to elide,
// the audit explaining why, and the ordinal bookkeeping that keeps
// filtered-trace reports byte-identical to full-trace reports.
type Plan struct {
	aud          *Audit
	skip         *trace.SkipSet
	runsA, runsB []run
}

// Analyze classifies every address of one encoded trace (v1 or v2) in a
// single decode and returns its elision Plan. The stream is fully
// validated on the way; a malformed, truncated or corrupt trace fails
// here with the usual *streamerr.Error kinds, and a trace with more
// distinct addresses than the event log can name fails with
// streamerr.KindBudget.
func Analyze(data []byte) (*Plan, error) { return analyze(data, logB) }

// analyze is Analyze with the distinct-address limit as a parameter, so
// a test can reach it without billions of addresses.
func analyze(data []byte, limit uint32) (*Plan, error) {
	c := newClassifier(limit)
	n, err := trace.ReplayAll(data, nil, nil, c)
	if err != nil {
		return nil, err
	}
	c.log = append(c.log, c.tail)

	addrs := make([]mem.Addr, 0, c.slots)
	for _, chunk := range c.states {
		for i := range chunk {
			addrs = append(addrs, chunk[i].addr)
		}
	}
	slices.Sort(addrs)

	elided := make([]bool, c.slots)
	var byClass [len(classOrder)]ClassSummary
	var skip []trace.AddrRange
	var elidedEvents, elidedBytes int64
	for _, a := range addrs {
		s := c.slotOf(a)
		st := c.state(s)
		cls := classOf(st)
		cs := &byClass[cls]
		cs.Addresses++
		cs.Events += st.accesses
		cs.Ranges = appendAddrRange(cs.Ranges, uint64(a))
		if cls == clsMustKeep {
			continue
		}
		elided[s] = true
		elidedEvents += st.accesses
		elidedBytes += st.bytes
		if k := len(skip); k > 0 && skip[k-1].Hi+1 == a {
			skip[k-1].Hi = a
		} else {
			skip = append(skip, trace.AddrRange{Lo: a, Hi: a})
		}
	}

	// Count the runs, then fill exactly-sized slices.
	var ra, rb runSink
	c.walkLog(elided, &ra, &rb)
	ra = runSink{runs: make([]run, 0, ra.opened)}
	rb = runSink{runs: make([]run, 0, rb.opened)}
	c.walkLog(elided, &ra, &rb)

	aud := &Audit{
		Schema:           AuditSchema,
		OriginalEvents:   n,
		FilteredEvents:   n - elidedEvents,
		ElidedEvents:     elidedEvents,
		ElidedBytes:      elidedBytes,
		OriginalAccesses: c.accesses,
		KeptAccesses:     c.accesses - elidedEvents,
		Addresses:        int64(c.slots),
		FastPathHits:     c.fastPathHits,
		Classes:          make([]ClassSummary, 0, len(classOrder)),
	}
	if aud.FilteredEvents > 0 {
		aud.Shrink = float64(aud.OriginalEvents) / float64(aud.FilteredEvents)
	}
	for i, cs := range byClass {
		if cs.Addresses > 0 {
			cs.Class, cs.Elided = classOrder[i], i != clsMustKeep
			aud.Classes = append(aud.Classes, cs)
		}
	}

	return &Plan{
		aud:   aud,
		skip:  trace.NewSkipSet(skip),
		runsA: ra.runs,
		runsB: rb.runs,
	}, nil
}

// Audit returns the plan's "why elided" artifact.
func (p *Plan) Audit() *Audit { return p.aud }

// SkipSet returns the elided address ranges for trace.ReplayAll.
func (p *Plan) SkipSet() *trace.SkipSet { return p.skip }

// Filter materializes the filtered trace for the stream the plan was
// computed from: same format version, access events to elided addresses
// removed, fresh integrity footer.
func (p *Plan) Filter(data []byte) ([]byte, trace.FilterStats, error) {
	return trace.FilterAccesses(data, p.skip)
}
