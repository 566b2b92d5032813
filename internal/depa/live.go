// Live mode: depa detection during execution on the wsrt work-stealing
// runtime, instead of during a serial trace replay.
//
// The timestamp arithmetic is the same as the replay detector's, but it
// runs concurrently: each frame's (path, depth, maxBlock) cursor is
// mutated only by the worker currently executing that frame's code, a
// spawned child's initial timestamp is fixed by its parent before the
// task is published to the deque, and a child's final depths are read by
// the parent only after the join — every edge the algorithm shares state
// across is already a synchronization edge of the runtime. Accesses
// append to the strand's private log (a strand runs on exactly one
// worker, uninterrupted — the lock-free fast path), and at every sync the
// joining worker merges its children's accumulated logs into the parent's
// — the shard merge at sync boundaries.
//
// After the run, the logs are linearized into the canonical serial order
// (SerialLess on strand timestamps — total, because all strands sharing a
// fork path form one serial chain of strictly increasing depths), frames
// are renumbered in canonical enter order, event ordinals are assigned by
// prefix sums, and the same sharded detection phase as replay mode runs
// over the result. That reconstruction is exactly the event stream the
// serial executor would have produced for the same program under
// NoSteals, which is what makes live verdicts byte-identical to the
// serial SP-bags baseline (TestLiveSPBagsParity).
package depa

import (
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/wsrt"
)

// strand kinds: which serial control event creates the strand. Each
// strand is created by exactly one FrameEnter, FrameReturn or Sync, so
// walking strands in canonical order reconstructs the serial event
// ordinals.
const (
	kindEnter uint8 = iota
	kindResume
	kindSync
)

// liveEntry is one (coalesced) access in a strand's private log.
type liveEntry struct {
	addr  mem.Addr
	count int32
	op    uint8
}

// liveStrand is one strand observed during a live run: its timestamp and
// private access log. Appended to only by the single worker executing
// the strand.
type liveStrand struct {
	ts       Timestamp
	frame    *liveFrame
	kind     uint8
	entries  []liveEntry
	fastHits int64
}

// liveFrame is one Cilk function instantiation on the runtime. Its cursor
// fields mirror the replay detector's frameState; strands accumulates the
// frame's own strands plus — merged in at each join — those of its
// completed children.
type liveFrame struct {
	label       string
	parent      *liveFrame
	spawned     bool
	everSpawned bool

	path        []uint32
	basePathLen int
	depth       int32
	maxBlock    int32

	cur     *liveStrand
	enterTs Timestamp

	strands []*liveStrand
	pending []*liveFrame // spawned children of the open sync block

	finalDepth    int32
	finalMaxBlock int32

	elem int32 // canonical rank, assigned at finalize
	seen bool
}

// LiveDetector runs a bridged program on a wsrt runtime and detects
// races on the fly. Create one per run; Report finalizes on first call.
type LiveDetector struct {
	// Shards overrides the detection fan-out (0 = the runtime's worker
	// count). The verdict is identical for every value.
	Shards int
	// Trace, when set, collects rader_depa_* spans: merge spans on the
	// worker's lane during the run, shard spans during finalize.
	Trace *obs.Trace

	workers    int
	root       *liveFrame
	syncMerges atomic.Int64

	lin       core.Lineage
	report    core.Report
	counts    obs.EventCounts
	stats     ParallelStats
	finalized bool
}

// NewLive returns a fresh live detector.
func NewLive() *LiveDetector { return &LiveDetector{} }

// Name implements core.Detector.
func (d *LiveDetector) Name() string { return "depa" }

// LCtx is the live-mode progs.BCtx: it couples a wsrt task context with
// the depa frame it is executing.
type LCtx struct {
	w *wsrt.Ctx
	d *LiveDetector
	f *liveFrame
}

// Run executes the workload on rt with detection attached and blocks
// until it completes. Panics from the workload (including stream-order
// violations) propagate, as they do under the serial executor.
func (d *LiveDetector) Run(rt *wsrt.Runtime, workload func(progs.BCtx)) {
	d.workers = rt.Workers()
	root := &liveFrame{label: "main"}
	d.root = root
	span := d.Trace.Start("rader_depa_live")
	rt.Run(func(wc *wsrt.Ctx) {
		c := &LCtx{w: wc, d: d, f: root}
		newLiveStrand(root, kindEnter)
		workload(c)
		c.finishFrame()
	})
	span.Arg("workers", d.workers).End()
}

// newLiveStrand registers the frame's current cursor as a fresh strand.
func newLiveStrand(f *liveFrame, kind uint8) {
	s := &liveStrand{ts: pack(f.path, f.depth), frame: f, kind: kind}
	if kind == kindEnter {
		f.enterTs = s.ts
	}
	f.cur = s
	f.strands = append(f.strands, s)
}

// finishFrame performs the frame's exit protocol: the implicit sync of a
// Cilk function that ever spawned, then sealing the final depths the
// parent folds in at its join.
func (c *LCtx) finishFrame() {
	if c.f.everSpawned {
		c.Sync()
	}
	c.f.finalDepth = c.f.depth
	c.f.finalMaxBlock = c.f.maxBlock
}

// Spawn implements progs.BCtx. The child's initial timestamp descends the
// branch-0 side of a fork at the parent's depth; the parent immediately
// advances to the continuation strand — in serial replay that strand is
// created at the child's FrameReturn, but its timestamp depends only on
// the fork, so help-first execution computes it identically.
func (c *LCtx) Spawn(label string, body func(progs.BCtx)) {
	f := c.f
	f.everSpawned = true
	d := f.depth
	child := &liveFrame{
		label: label, parent: f, spawned: true,
		path:  append(append(make([]uint32, 0, len(f.path)+1), f.path...), pathEntry(d, branchChild)),
		depth: d + 1,
	}
	child.basePathLen = len(child.path)
	child.maxBlock = child.depth
	newLiveStrand(child, kindEnter)
	f.pending = append(f.pending, child)

	f.path = append(f.path, pathEntry(d, branchCont))
	f.depth = d + 1
	if f.depth > f.maxBlock {
		f.maxBlock = f.depth
	}
	newLiveStrand(f, kindResume)

	det := c.d
	c.w.Spawn(func(wc *wsrt.Ctx) {
		cc := &LCtx{w: wc, d: det, f: child}
		body(cc)
		cc.finishFrame()
	})
}

// Call implements progs.BCtx: the child extends the caller's serial chain
// on the same worker, in its own join scope.
func (c *LCtx) Call(label string, body func(progs.BCtx)) {
	f := c.f
	child := &liveFrame{
		label: label, parent: f,
		path:  append(make([]uint32, 0, len(f.path)), f.path...),
		depth: f.depth + 1,
	}
	child.basePathLen = len(child.path)
	child.maxBlock = child.depth
	newLiveStrand(child, kindEnter)

	c.w.Call(func(wc *wsrt.Ctx) {
		cc := &LCtx{w: wc, d: c.d, f: child}
		body(cc)
		cc.finishFrame()
	})

	f.depth = child.finalDepth + 1
	if child.finalMaxBlock > f.maxBlock {
		f.maxBlock = child.finalMaxBlock
	}
	if f.depth > f.maxBlock {
		f.maxBlock = f.depth
	}
	f.strands = append(f.strands, child.strands...)
	newLiveStrand(f, kindResume)
}

// Sync implements progs.BCtx: it joins the block's children on the
// runtime, folds their final depths into the block maximum, merges their
// accumulated logs into the parent's — the shard merge at the sync
// boundary — and opens the post-sync strand one level below everything
// the block executed.
func (c *LCtx) Sync() {
	f := c.f
	c.w.Sync()
	if n := len(f.pending); n > 0 {
		span := c.d.Trace.StartTID(c.w.Worker()+1, "rader_depa_live_merge")
		for _, ch := range f.pending {
			if ch.finalDepth > f.maxBlock {
				f.maxBlock = ch.finalDepth
			}
			if ch.finalMaxBlock > f.maxBlock {
				f.maxBlock = ch.finalMaxBlock
			}
			f.strands = append(f.strands, ch.strands...)
		}
		c.d.syncMerges.Add(int64(n))
		span.Arg("children", n).End()
		f.pending = f.pending[:0]
	}
	f.path = f.path[:f.basePathLen]
	f.depth = f.maxBlock + 1
	f.maxBlock = f.depth
	newLiveStrand(f, kindSync)
}

// Load implements progs.BCtx.
func (c *LCtx) Load(a mem.Addr) { c.logAccess(a, opLoad) }

// Store implements progs.BCtx.
func (c *LCtx) Store(a mem.Addr) { c.logAccess(a, opStore) }

// logAccess appends to the executing strand's private log, coalescing
// consecutive repeats — strand-private state, so the fast path takes no
// lock and issues no atomic.
func (c *LCtx) logAccess(a mem.Addr, op uint8) {
	s := c.f.cur
	if n := len(s.entries); n > 0 {
		if last := &s.entries[n-1]; last.addr == a && last.op == op {
			last.count++
			s.fastHits++
			return
		}
	}
	s.entries = append(s.entries, liveEntry{addr: a, count: 1, op: op})
}

// Report implements core.Detector: the first call linearizes the logs
// and runs the sharded detection phase.
func (d *LiveDetector) Report() *core.Report {
	d.finalize()
	return &d.report
}

// ParallelStats implements ParallelStatsProvider.
func (d *LiveDetector) ParallelStats() ParallelStats {
	d.finalize()
	return d.stats
}

// EventCounts implements core.EventCountsProvider.
func (d *LiveDetector) EventCounts() obs.EventCounts {
	d.finalize()
	return d.counts
}

// finalize reconstructs the canonical serial stream from the merged logs
// and runs the shared detection phase over it.
func (d *LiveDetector) finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	if d.root == nil {
		return
	}
	span := d.Trace.Start("rader_depa_live_finalize")
	all := d.root.strands
	sort.Slice(all, func(i, j int) bool { return SerialLess(all[i].ts, all[j].ts) })

	// Frames surface in canonical enter order: a frame's first strand in
	// the sorted sequence is its enter strand (a frame's cursor sequence
	// is strictly increasing), and parents enter before their children.
	var frames []*liveFrame
	for _, s := range all {
		if !s.frame.seen {
			s.frame.seen = true
			frames = append(frames, s.frame)
		}
	}
	for i, f := range frames {
		f.elem = int32(i)
		parent := core.NoParent
		if f.parent != nil {
			parent = f.parent.elem
		}
		d.lin.Add(int32(i), cilk.FrameID(i), f.label, parent)
	}

	// Prefix sums assign the serial event ordinals: each strand accounts
	// for its creating control event plus its accesses.
	strands := make([]strandRec, len(all))
	var entries []entry
	var ord int64
	for i, s := range all {
		strands[i] = strandRec{ts: s.ts, frame: s.frame.elem}
		ord++
		switch s.kind {
		case kindEnter:
			d.counts.FrameEnters++
		case kindResume:
			d.counts.FrameReturns++
		case kindSync:
			d.counts.Syncs++
		}
		for _, le := range s.entries {
			entries = append(entries, entry{
				addr: le.addr, ord: ord + 1, strand: int32(i), count: le.count, op: le.op,
			})
			ord += int64(le.count)
			if le.op == opLoad {
				d.counts.Loads += uint64(le.count)
			} else {
				d.counts.Stores += uint64(le.count)
			}
		}
		d.stats.FastPathHits += s.fastHits
	}
	d.counts.ShadowLookups += 2 * uint64(len(entries))

	shards := d.Shards
	if shards <= 0 {
		shards = d.workers
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	d.stats.Workers = d.workers
	d.stats.Accesses = int64(d.counts.Loads + d.counts.Stores)
	d.stats.ShardMerges = d.syncMerges.Load() + int64(shards)
	runDetection(entries, strands, &d.lin, shards, d.Trace, &d.report)
	span.Arg("strands", len(all)).Arg("entries", len(entries)).End()
}

var (
	_ ParallelStatsProvider = (*LiveDetector)(nil)
	_ progs.BCtx            = (*LCtx)(nil)
)
