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
//     these addresses; SP+, Offset-Span and English-Hebrew fire at a
//     subset of them (verified corpus-wide and fuzzed by FuzzElide);
//     Peer-Set never consumes Load/Store events at all. So no
//     detector's race set mentions an elided address.
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
// A Plan can be applied two ways with identical observable behaviour:
// materialize a filtered trace in the same CILKTRACE format (Filter,
// backed by trace.FilterAccesses) or replay the full trace under the
// Plan's address-range skip set (trace.ReplayAll), which every
// existing consumer supports unchanged.
package elide

import (
	"sort"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// access ops, mirroring internal/depa.
const (
	opLoad uint8 = iota
	opStore
)

// addrState is the classifier's per-address shadow cell.
type addrState struct {
	reader, writer       depa.Timestamp
	hasReader, hasWriter bool
	loads, stores        int64
	firstGen             int64 // strand generation of the first access
	racy                 bool  // a depa shadow rule fired: must keep
	multiStrand          bool  // accessed from more than one strand
	outsideVA            bool  // some access outside any view-op window
}

// classifier is pass 1: it reconstructs strand timestamps with a
// depa.Cursor and runs the depa shadow discipline per address, plus the
// bookkeeping the audit and the stats fixup need (strand generations,
// view-op windows, and an exact simulation of the depa detector's
// coalescing fast path on the full stream).
type classifier struct {
	cilk.Empty
	cursor  depa.Cursor
	ts      depa.Timestamp
	tsValid bool
	gen     int64 // strand generation: bumps at every control event
	vaDepth int
	addrs   map[mem.Addr]*addrState

	accesses int64

	// full-trace simulation of depa's logAccess coalescing: a hit iff
	// the previous access (any address, whole stream) carried the same
	// (strand, addr, op).
	haveLast     bool
	lastGen      int64
	lastAddr     mem.Addr
	lastOp       uint8
	fastPathHits int64
}

func (c *classifier) bump() {
	c.gen++
	c.tsValid = false
}

// FrameEnter implements cilk.Hooks.
func (c *classifier) FrameEnter(f *cilk.Frame) {
	c.cursor.Enter(f.Spawned)
	c.bump()
}

// FrameReturn implements cilk.Hooks.
func (c *classifier) FrameReturn(g, f *cilk.Frame) {
	if c.cursor.Open() < 2 {
		panic(core.Violatef("elide", core.StreamOrder, g.ID,
			"return of frame %d with %d frames open", g.ID, c.cursor.Open()))
	}
	c.cursor.Return()
	c.bump()
}

// Sync implements cilk.Hooks.
func (c *classifier) Sync(f *cilk.Frame) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	c.cursor.Sync()
	c.bump()
}

// ViewAwareBegin implements cilk.Hooks.
func (c *classifier) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	c.vaDepth++
}

// ViewAwareEnd implements cilk.Hooks.
func (c *classifier) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	if c.vaDepth > 0 {
		c.vaDepth--
	}
}

// Load implements cilk.Hooks.
func (c *classifier) Load(f *cilk.Frame, a mem.Addr) { c.access(f, a, opLoad) }

// Store implements cilk.Hooks.
func (c *classifier) Store(f *cilk.Frame, a mem.Addr) { c.access(f, a, opStore) }

func (c *classifier) access(f *cilk.Frame, a mem.Addr, op uint8) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	c.accesses++
	if c.haveLast && c.lastGen == c.gen && c.lastAddr == a && c.lastOp == op {
		c.fastPathHits++
	} else {
		c.haveLast, c.lastGen, c.lastAddr, c.lastOp = true, c.gen, a, op
	}
	if !c.tsValid {
		c.ts = c.cursor.Now()
		c.tsValid = true
	}
	st := c.addrs[a]
	if st == nil {
		st = &addrState{firstGen: c.gen}
		c.addrs[a] = st
	}
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
		st.loads++
		if st.hasWriter && depa.Parallel(st.writer, c.ts) {
			st.racy = true
		}
		if !st.hasReader || !depa.Parallel(st.reader, c.ts) {
			st.reader, st.hasReader = c.ts, true
		}
	case opStore:
		st.stores++
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

// classOf is the audit taxonomy for one address. Soundness rests only
// on racy → must-keep; the remaining classes explain *why* an address
// was provably race-free, in precedence order.
func classOf(st *addrState) string {
	switch {
	case st.racy:
		return ClassMustKeep
	case st.stores == 0:
		return ClassReadOnly
	case !st.multiStrand:
		return ClassStrandLocal
	case !st.outsideVA:
		return ClassViewProtected
	default:
		return ClassSyncSerialized
	}
}

// ordPass is pass 2: with the elided address set fixed, it walks the
// stream again recording, for each elided access, its 1-based ordinal
// in both detector ordinal spaces — space A ({FrameEnter, FrameReturn,
// Sync, Load, Store}: SP-bags, Offset-Span, English-Hebrew, depa) and
// space B (A plus {Stolen, ReduceStart, ReduceEnd, ViewAwareBegin,
// ViewAwareEnd}: SP+) — as run-length-encoded runs, plus the encoded
// bytes those access records occupy.
type ordPass struct {
	cilk.Empty
	elided       map[mem.Addr]bool
	ordA, ordB   int64
	runsA, runsB []run
	elidedEvents int64
	elidedBytes  int64
}

// FrameEnter implements cilk.Hooks.
func (o *ordPass) FrameEnter(f *cilk.Frame) { o.ordA++; o.ordB++ }

// FrameReturn implements cilk.Hooks.
func (o *ordPass) FrameReturn(g, f *cilk.Frame) { o.ordA++; o.ordB++ }

// Sync implements cilk.Hooks.
func (o *ordPass) Sync(f *cilk.Frame) { o.ordA++; o.ordB++ }

// ContinuationStolen implements cilk.Hooks.
func (o *ordPass) ContinuationStolen(f *cilk.Frame, vid cilk.ViewID) { o.ordB++ }

// ReduceStart implements cilk.Hooks.
func (o *ordPass) ReduceStart(f *cilk.Frame, keep, die cilk.ViewID) { o.ordB++ }

// ReduceEnd implements cilk.Hooks.
func (o *ordPass) ReduceEnd(f *cilk.Frame) { o.ordB++ }

// ViewAwareBegin implements cilk.Hooks.
func (o *ordPass) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) { o.ordB++ }

// ViewAwareEnd implements cilk.Hooks.
func (o *ordPass) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) { o.ordB++ }

// Load implements cilk.Hooks.
func (o *ordPass) Load(f *cilk.Frame, a mem.Addr) { o.access(f, a) }

// Store implements cilk.Hooks.
func (o *ordPass) Store(f *cilk.Frame, a mem.Addr) { o.access(f, a) }

func (o *ordPass) access(f *cilk.Frame, a mem.Addr) {
	o.ordA++
	o.ordB++
	if !o.elided[a] {
		return
	}
	o.elidedEvents++
	o.elidedBytes += int64(1 + uvarintLen(uint64(f.ID)) + uvarintLen(uint64(a)))
	o.runsA = appendRun(o.runsA, o.ordA)
	o.runsB = appendRun(o.runsB, o.ordB)
}

// uvarintLen is the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Plan is the result of analyzing one trace: which addresses to elide,
// the audit explaining why, and the ordinal bookkeeping that keeps
// filtered-trace reports byte-identical to full-trace reports.
type Plan struct {
	aud          *Audit
	elided       map[mem.Addr]bool
	skip         *trace.SkipSet
	runsA, runsB []run
}

// Analyze runs the two classification passes over one encoded trace
// (v1 or v2) and returns its elision Plan. The stream is fully
// validated on the way (both passes replay it); a malformed, truncated
// or corrupt trace fails here with the usual *streamerr.Error kinds.
func Analyze(data []byte) (*Plan, error) {
	c := &classifier{addrs: make(map[mem.Addr]*addrState)}
	n, err := trace.ReplayAll(data, nil, nil, c)
	if err != nil {
		return nil, err
	}

	addrs := make([]mem.Addr, 0, len(c.addrs))
	for a := range c.addrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	elided := make(map[mem.Addr]bool)
	byClass := make(map[string]*ClassSummary, len(classOrder))
	var elidedAddrs []mem.Addr
	for _, a := range addrs {
		st := c.addrs[a]
		cls := classOf(st)
		if cls != ClassMustKeep {
			elided[a] = true
			elidedAddrs = append(elidedAddrs, a)
		}
		cs := byClass[cls]
		if cs == nil {
			cs = &ClassSummary{Class: cls, Elided: cls != ClassMustKeep}
			byClass[cls] = cs
		}
		cs.Addresses++
		cs.Events += st.loads + st.stores
		cs.Ranges = appendAddrRange(cs.Ranges, uint64(a))
	}

	p2 := &ordPass{elided: elided}
	if _, err := trace.ReplayAll(data, nil, nil, p2); err != nil {
		return nil, err
	}

	aud := &Audit{
		Schema:           AuditSchema,
		OriginalEvents:   n,
		FilteredEvents:   n - p2.elidedEvents,
		ElidedEvents:     p2.elidedEvents,
		ElidedBytes:      p2.elidedBytes,
		OriginalAccesses: c.accesses,
		KeptAccesses:     c.accesses - p2.elidedEvents,
		Addresses:        int64(len(addrs)),
		FastPathHits:     c.fastPathHits,
		Classes:          make([]ClassSummary, 0, len(classOrder)),
	}
	if aud.FilteredEvents > 0 {
		aud.Shrink = float64(aud.OriginalEvents) / float64(aud.FilteredEvents)
	}
	for _, cls := range classOrder {
		if cs := byClass[cls]; cs != nil {
			aud.Classes = append(aud.Classes, *cs)
		}
	}

	return &Plan{
		aud:    aud,
		elided: elided,
		skip:   trace.SkipSetFromAddrs(elidedAddrs),
		runsA:  p2.runsA,
		runsB:  p2.runsB,
	}, nil
}

// Audit returns the plan's "why elided" artifact.
func (p *Plan) Audit() *Audit { return p.aud }

// SkipSet returns the elided address ranges for trace.ReplayAll.
func (p *Plan) SkipSet() *trace.SkipSet { return p.skip }

// Keep reports whether address a survives elision.
func (p *Plan) Keep(a mem.Addr) bool { return !p.elided[a] }

// Filter materializes the filtered trace for the stream the plan was
// computed from: same format version, access events to elided addresses
// removed, fresh integrity footer.
func (p *Plan) Filter(data []byte) ([]byte, trace.FilterStats, error) {
	return trace.FilterAccesses(data, p.Keep)
}
