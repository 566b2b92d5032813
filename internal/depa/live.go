// Live mode: depa detection of a bridged program running on the wsrt
// work-stealing runtime, instead of on a recorded trace.
//
// During the run each frame keeps a log of what it did, in program
// order: runs of identical accesses, the child frames it spawned or
// called, and its syncs. Only the worker executing a frame appends to
// its log — a child is logged by its parent before the task is
// published, and a task never migrates mid-execution — so recording
// takes no lock and issues no atomic, and consecutive repeats of one
// access collapse into one counted record (the strand-local fast path).
// The logs are read only after the run, once the runtime has joined
// every task.
//
// finalize then walks the frame tree depth first, each child before its
// parent's continuation. That walk is the event stream the serial
// executor emits for the same program, so it drives the replay detector
// through its five events: live verdicts, event ordinals and frame
// numbering are the serial ones by construction (TestLiveSPBagsParity),
// and live mode has no timestamp arithmetic of its own.
package depa

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/wsrt"
)

// liveRec is one record of a frame's log: a child frame, a run of count
// identical accesses, or — child nil and count 0 — a sync.
type liveRec struct {
	addr  mem.Addr
	child *liveFrame
	count int32
	op    uint8
}

// liveFrame is one Cilk function instantiation on the runtime.
type liveFrame struct {
	label   string
	spawned bool
	log     []liveRec
}

// access logs one access, extending the last record when it is a run of
// the same access.
func (f *liveFrame) access(a mem.Addr, op uint8) {
	if n := len(f.log); n > 0 {
		if last := &f.log[n-1]; last.count > 0 && last.addr == a && last.op == op {
			last.count++
			return
		}
	}
	f.log = append(f.log, liveRec{addr: a, count: 1, op: op})
}

// LiveDetector runs a bridged program on a wsrt runtime with depa
// detection attached. Create one per run.
type LiveDetector struct {
	// Trace, when set, collects the run and finalize spans, and the
	// detection phase's rader_depa_* spans.
	Trace *obs.Trace

	det    Detector
	frames int   // frames the walk has entered, numbered in enter order
	joins  int64 // spawned children joined at syncs
}

// NewLive returns a fresh live detector.
func NewLive() *LiveDetector { return &LiveDetector{} }

// Name implements core.Detector.
func (d *LiveDetector) Name() string { return "depa" }

// liveCtx is the live-mode progs.BCtx: a wsrt task context and the frame
// it executes.
type liveCtx struct {
	w *wsrt.Ctx
	f *liveFrame
}

// Run executes the workload on rt, then runs detection over what it
// logged. Panics from the workload propagate, as they do under the
// serial executor.
func (d *LiveDetector) Run(rt *wsrt.Runtime, workload func(progs.BCtx)) {
	root := &liveFrame{label: "main"}
	span := d.Trace.Start("rader_depa_live")
	rt.Run(func(wc *wsrt.Ctx) { workload(&liveCtx{w: wc, f: root}) })
	span.Arg("workers", rt.Workers()).End()
	d.finalize(root, rt.Workers())
}

// child logs a child frame in the caller's log and returns it.
func (c *liveCtx) child(label string, spawned bool) *liveFrame {
	ch := &liveFrame{label: label, spawned: spawned}
	c.f.log = append(c.f.log, liveRec{child: ch})
	return ch
}

// Spawn implements progs.BCtx.
func (c *liveCtx) Spawn(label string, body func(progs.BCtx)) {
	ch := c.child(label, true)
	c.w.Spawn(func(wc *wsrt.Ctx) { body(&liveCtx{w: wc, f: ch}) })
}

// Call implements progs.BCtx.
func (c *liveCtx) Call(label string, body func(progs.BCtx)) {
	ch := c.child(label, false)
	c.w.Call(func(wc *wsrt.Ctx) { body(&liveCtx{w: wc, f: ch}) })
}

// Sync implements progs.BCtx.
func (c *liveCtx) Sync() {
	c.w.Sync()
	c.f.log = append(c.f.log, liveRec{})
}

// Load implements progs.BCtx.
func (c *liveCtx) Load(a mem.Addr) { c.f.access(a, opLoad) }

// Store implements progs.BCtx.
func (c *liveCtx) Store(a mem.Addr) { c.f.access(a, opStore) }

// finalize walks the logs from root into the detector, with one
// detection shard per runtime worker, and runs detection.
func (d *LiveDetector) finalize(root *liveFrame, workers int) {
	span := d.Trace.Start("rader_depa_live_finalize")
	d.det.Shards = workers
	d.det.Trace = d.Trace
	d.walk(root, nil)
	d.det.finalize()
	span.Arg("frames", d.frames).End()
}

// walk emits f's enter, its log in order, the implicit sync of a frame
// that spawned, and — below the root — its return.
func (d *LiveDetector) walk(f *liveFrame, parent *cilk.Frame) {
	det := &d.det
	cf := &cilk.Frame{ID: cilk.FrameID(d.frames), Parent: parent, Label: f.label, Spawned: f.spawned}
	d.frames++
	det.FrameEnter(cf)
	spawned := false
	for _, r := range f.log {
		switch {
		case r.child != nil:
			d.walk(r.child, cf)
			if r.child.spawned {
				spawned = true
				d.joins++
			}
		case r.count == 0:
			det.Sync(cf)
		case r.op == opLoad:
			for i := int32(0); i < r.count; i++ {
				det.Load(cf, r.addr)
			}
		default:
			for i := int32(0); i < r.count; i++ {
				det.Store(cf, r.addr)
			}
		}
	}
	if spawned {
		det.Sync(cf)
	}
	if parent != nil {
		det.FrameReturn(cf, parent)
	}
}

// Report implements core.Detector.
func (d *LiveDetector) Report() *core.Report { return d.det.Report() }

// ParallelStats implements ParallelStatsProvider: the detector's stats,
// with the spawned children joined at syncs counted as merges.
func (d *LiveDetector) ParallelStats() ParallelStats {
	st := d.det.ParallelStats()
	st.ShardMerges += d.joins
	return st
}

// EventCounts implements core.EventCountsProvider.
func (d *LiveDetector) EventCounts() obs.EventCounts { return d.det.EventCounts() }

var (
	_ ParallelStatsProvider = (*LiveDetector)(nil)
	_ progs.BCtx            = (*liveCtx)(nil)
)
