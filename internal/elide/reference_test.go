package elide

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// This file keeps the original two-pass classifier as a test-only
// reference: pass 1 runs the depa shadow discipline in a map of
// per-address heap cells, pass 2 replays the stream again to record the
// elided ordinals. Analyze must produce exactly the plan it produces.

// refState is the reference classifier's per-address shadow cell.
type refState struct {
	reader, writer       depa.Timestamp
	hasReader, hasWriter bool
	loads, stores        int64
	firstGen             int64
	racy                 bool
	multiStrand          bool
	outsideVA            bool
}

// refClassifier is the reference pass 1.
type refClassifier struct {
	cilk.Empty
	cursor  depa.Cursor
	ts      depa.Timestamp
	tsValid bool
	gen     int64
	vaDepth int
	addrs   map[mem.Addr]*refState

	accesses int64

	haveLast     bool
	lastGen      int64
	lastAddr     mem.Addr
	lastOp       uint8
	fastPathHits int64
}

func (c *refClassifier) bump() {
	c.gen++
	c.tsValid = false
}

func (c *refClassifier) FrameEnter(f *cilk.Frame) {
	c.cursor.Enter(f.Spawned)
	c.bump()
}

func (c *refClassifier) FrameReturn(g, f *cilk.Frame) {
	if c.cursor.Open() < 2 {
		panic(core.Violatef("elide", streamerr.KindOrder, g.ID,
			"return of frame %d with %d frames open", g.ID, c.cursor.Open()))
	}
	c.cursor.Return()
	c.bump()
}

func (c *refClassifier) Sync(f *cilk.Frame) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", streamerr.KindOrder, f.ID, "sync before any frame entered"))
	}
	c.cursor.Sync()
	c.bump()
}

func (c *refClassifier) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	c.vaDepth++
}

func (c *refClassifier) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	if c.vaDepth > 0 {
		c.vaDepth--
	}
}

func (c *refClassifier) Load(f *cilk.Frame, a mem.Addr)  { c.access(f, a, opLoad) }
func (c *refClassifier) Store(f *cilk.Frame, a mem.Addr) { c.access(f, a, opStore) }

func (c *refClassifier) access(f *cilk.Frame, a mem.Addr, op uint8) {
	if c.cursor.Open() == 0 {
		panic(core.Violatef("elide", streamerr.KindOrder, f.ID, "memory access before any frame entered"))
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
		st = &refState{firstGen: c.gen}
		c.addrs[a] = st
	}
	if st.firstGen != c.gen {
		st.multiStrand = true
	}
	if c.vaDepth == 0 {
		st.outsideVA = true
	}
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
			return
		}
		st.writer, st.hasWriter = c.ts, true
	}
}

func refClassOf(st *refState) string {
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

// refOrdPass is the reference pass 2: a second replay that records the
// elided ordinals in both ordinal spaces.
type refOrdPass struct {
	cilk.Empty
	elided       map[mem.Addr]bool
	ordA, ordB   int64
	runsA, runsB []run
	elidedEvents int64
	elidedBytes  int64
}

func (o *refOrdPass) FrameEnter(f *cilk.Frame)                               { o.ordA++; o.ordB++ }
func (o *refOrdPass) FrameReturn(g, f *cilk.Frame)                           { o.ordA++; o.ordB++ }
func (o *refOrdPass) Sync(f *cilk.Frame)                                     { o.ordA++; o.ordB++ }
func (o *refOrdPass) ContinuationStolen(f *cilk.Frame, vid cilk.ViewID)      { o.ordB++ }
func (o *refOrdPass) ReduceStart(f *cilk.Frame, keep, die cilk.ViewID)       { o.ordB++ }
func (o *refOrdPass) ReduceEnd(f *cilk.Frame)                                { o.ordB++ }
func (o *refOrdPass) ViewAwareBegin(*cilk.Frame, cilk.ViewOp, *cilk.Reducer) { o.ordB++ }
func (o *refOrdPass) ViewAwareEnd(*cilk.Frame, cilk.ViewOp, *cilk.Reducer)   { o.ordB++ }
func (o *refOrdPass) Load(f *cilk.Frame, a mem.Addr)                         { o.access(f, a) }
func (o *refOrdPass) Store(f *cilk.Frame, a mem.Addr)                        { o.access(f, a) }

func (o *refOrdPass) access(f *cilk.Frame, a mem.Addr) {
	o.ordA++
	o.ordB++
	if !o.elided[a] {
		return
	}
	o.elidedEvents++
	o.elidedBytes += int64(1 + refUvarintLen(uint64(f.ID)) + refUvarintLen(uint64(a)))
	o.runsA = refAppendRun(o.runsA, o.ordA)
	o.runsB = refAppendRun(o.runsB, o.ordB)
}

func refUvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// refAppendRun extends the last run when ord is its successor, and
// otherwise opens a run recording every elided ordinal before it.
func refAppendRun(rs []run, ord int64) []run {
	n := len(rs)
	if n > 0 && rs[n-1].start+rs[n-1].count == ord {
		rs[n-1].count++
		return rs
	}
	var before int64
	if n > 0 {
		before = rs[n-1].before + rs[n-1].count
	}
	return append(rs, run{start: ord, count: 1, before: before})
}

// analyzeReference is the two-pass classifier Analyze replaced.
func analyzeReference(data []byte) (*Plan, error) {
	c := &refClassifier{addrs: make(map[mem.Addr]*refState)}
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
		cls := refClassOf(st)
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

	p2 := &refOrdPass{elided: elided}
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
		aud:   aud,
		skip:  trace.SkipSetFromAddrs(elidedAddrs),
		runsA: p2.runsA,
		runsB: p2.runsB,
	}, nil
}

// diffPlans describes the first difference between two plans — audit
// bytes, ordinal runs in either space, skip ranges — or returns nil.
func diffPlans(got, want *Plan) error {
	ga, err := got.aud.Marshal()
	if err != nil {
		return err
	}
	wa, err := want.aud.Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(ga, wa) {
		return fmt.Errorf("audit differs:\n got: %s\nwant: %s", ga, wa)
	}
	if !slices.Equal(got.runsA, want.runsA) {
		return fmt.Errorf("space-A runs differ:\n got: %v\nwant: %v", got.runsA, want.runsA)
	}
	if !slices.Equal(got.runsB, want.runsB) {
		return fmt.Errorf("space-B runs differ:\n got: %v\nwant: %v", got.runsB, want.runsB)
	}
	if g, w := got.skip.Ranges(), want.skip.Ranges(); !slices.Equal(g, w) {
		return fmt.Errorf("skip ranges differ:\n got: %v\nwant: %v", g, w)
	}
	return nil
}

// diffAnalyze runs Analyze and the reference on data and describes the
// first difference in their plans or errors, or returns nil.
func diffAnalyze(data []byte) error {
	got, gotErr := Analyze(data)
	want, wantErr := analyzeReference(data)
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("errors differ:\n got: %v\nwant: %v", gotErr, wantErr)
		}
		return nil
	}
	return diffPlans(got, want)
}
