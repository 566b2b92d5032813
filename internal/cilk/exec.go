package cilk

import (
	"time"

	"repro/internal/mem"
	"repro/internal/streamerr"
)

// Config selects the schedule, instrumentation and limits for one run.
type Config struct {
	// Spec fixes the simulated schedule. nil means NoSteals: the plain
	// serial execution with only the leftmost view.
	Spec StealSpec
	// Hooks receives the instrumentation event stream. nil runs the
	// program with no instrumentation (the Figure 7 baseline).
	Hooks Hooks
	// EventBudget aborts the run once it has emitted this many events
	// (0 = unlimited): the next event panics with a KindBudget
	// *streamerr.Error naming its 0-based index. Every event counts,
	// whether it reaches Hooks, is withheld by Gate or has no Hooks to
	// reach.
	EventBudget int64
	// Deadline aborts the run with a KindDeadline *streamerr.Error once
	// the clock passes it (zero time = no deadline). The clock is read at
	// event 0 and every deadlineStride events after it, so the hot path
	// pays no clock read per event.
	Deadline time.Time
	// Gate, when set, withholds the run's first events from Hooks and
	// observes its continuation probes.
	Gate *Gate
	// EagerViews disables the runtime's lazy view creation: every
	// simulated steal immediately materializes identity views for all
	// registered reducers, instead of waiting for the first Update. The
	// paper's runtime is lazy (§1); this knob exists for the
	// BenchmarkAblationLazyViews comparison.
	EagerViews bool
}

// Gate withholds a run's events from its hooks until a continuation probe.
// It is the mechanism behind the prefix-sharing coverage sweep: two steal
// specifications that agree on every steal decision up to continuation t
// produce bit-identical event prefixes, so a sweep unit seeded from a
// detector snapshot taken at t re-executes the program with the prefix
// withheld and delivers events from probe t on, when the restored detector
// takes over. The probe is exactly the boundary between the shared prefix
// and the divergent suffix: every event before it is determined by the
// shared decisions, and every event after it may depend on its answer.
type Gate struct {
	// From is the 1-based sequence number of the probe at which events
	// start reaching the hooks; the gate opens before that probe's steal
	// decision. From <= 0 withholds nothing.
	From int
	// OnProbe, when set, observes every continuation probe in Seq order,
	// before the gate opens at it and before its steal decision — the seam
	// the sweep uses to check the probe sequence and to capture snapshots
	// at trie branch points.
	OnProbe func(ContInfo)
	// Withheld counts the events withheld so far. The executor updates it
	// as the run proceeds, so a run that aborts still reports its count.
	Withheld int64
}

// deadlineStride is how many events pass between two clock reads of a run
// under a deadline.
const deadlineStride = 1024

// Result summarizes one run of a program.
type Result struct {
	Frames  int // Cilk function instantiations
	Spawns  int
	Syncs   int // explicit and implicit syncs executed
	Reduces int // reduce operations performed
	Views   int // parallel views created by simulated steals
	Steals  []ContInfo
	Loads   uint64
	Stores  uint64
	Reads   uint64 // reducer-reads (create, set-value, get-value)
	Updates uint64 // reducer Update operations
}

// emitMode is what emit does with the next event.
type emitMode uint8

const (
	emitDeliver  emitMode = iota // hooks attached, nothing withheld, no limits
	emitDrop                     // no hooks, no limits
	emitWithhold                 // the gate is closed, no limits
	emitCount                    // a budget or deadline: count out of line
)

// Executor runs one program serially under one Config. A fresh Executor is
// required per run; Run is the usual entry point.
type Executor struct {
	spec  StealSpec
	order ReduceOrder
	hooks Hooks

	mode     emitMode
	gate     *Gate
	closed   bool // the gate has not reached its From probe
	budget   int64
	deadline time.Time
	events   int64 // events emitted, counted only in emitCount mode

	nextFrame  FrameID
	nextView   ViewID
	contSeq    int
	reducers   []*Reducer
	viewAware  int
	eagerViews bool
	res        Result
}

// Run executes prog under cfg and returns the run summary. A budget or
// deadline abort panics with a *streamerr.Error; cfg.Gate.Withheld holds
// the events withheld before it.
func Run(prog func(*Ctx), cfg Config) *Result {
	ex := &Executor{
		spec: cfg.Spec, hooks: cfg.Hooks, eagerViews: cfg.EagerViews,
		gate: cfg.Gate, budget: cfg.EventBudget, deadline: cfg.Deadline,
	}
	if ex.spec == nil {
		ex.spec = NoSteals{}
	}
	ex.order = ex.spec.Order()
	ex.closed = ex.gate != nil && ex.gate.From > 0
	ex.setMode()

	root := ex.newFrame(nil, "main", false)
	root.slots0[0] = newViewSlot(0)
	root.slots = root.slots0[:1]
	if ex.emit() {
		ex.hooks.ProgramStart(root)
	}
	if ex.emit() {
		ex.hooks.FrameEnter(root)
	}
	prog(&root.ctx)
	ex.exitFrame(root)
	if ex.emit() {
		ex.hooks.ProgramEnd(root)
	}
	res := ex.res
	return &res
}

// setMode derives emit's mode from the hooks, the limits and the gate.
func (ex *Executor) setMode() {
	switch {
	case ex.budget > 0 || !ex.deadline.IsZero():
		ex.mode = emitCount
	case ex.closed:
		ex.mode = emitWithhold
	case ex.hooks != nil:
		ex.mode = emitDeliver
	default:
		ex.mode = emitDrop
	}
}

// emit is the executor's one event choke point: every emission site calls
// it and calls the hooks only when it returns true. A run with hooks and
// neither limits nor a closed gate pays one predictable branch per event,
// a withheld event a second branch and an increment, and only runs under
// a budget or deadline reach the out-of-line count. The body sits just
// under the compiler's inlining budget; TestEmitInlines keeps it there.
func (ex *Executor) emit() bool {
	switch ex.mode {
	case emitDeliver:
		return true
	case emitWithhold:
		ex.gate.Withheld++
	case emitCount:
		return ex.count()
	}
	return false
}

// count is emit under a budget or deadline. It numbers every event, and
// aborts before delivering the one past the budget, or the first one
// checked after the deadline.
func (ex *Executor) count() bool {
	n := ex.events
	ex.events++
	if ex.budget > 0 && ex.events > ex.budget {
		panic(streamerr.Errorf("cilk", streamerr.KindBudget,
			"event budget %d exceeded", ex.budget).WithEvent(n))
	}
	if !ex.deadline.IsZero() && n%deadlineStride == 0 && time.Now().After(ex.deadline) {
		panic(streamerr.Errorf("cilk", streamerr.KindDeadline,
			"run deadline exceeded").WithEvent(n))
	}
	if ex.closed {
		ex.gate.Withheld++
		return false
	}
	return ex.hooks != nil
}

// probe is the gate's side of a continuation probe, run before its steal
// decision: OnProbe observes it, and the gate opens at From.
func (ex *Executor) probe(ci ContInfo) {
	if ex.gate.OnProbe != nil {
		ex.gate.OnProbe(ci)
	}
	if ex.closed && ci.Seq >= ex.gate.From {
		ex.closed = false
		ex.setMode()
	}
}

func (ex *Executor) newFrame(parent *Frame, label string, spawned bool) *Frame {
	f := &Frame{
		ID:      ex.nextFrame,
		Parent:  parent,
		Label:   label,
		Spawned: spawned,
	}
	ex.nextFrame++
	ex.res.Frames++
	if parent != nil {
		f.Depth = parent.Depth + 1
		f.AncestorSpawns = parent.AncestorSpawns + parent.LocalSpawns
		f.slots0[0] = parent.top()
		f.slots = f.slots0[:1]
	}
	f.ctx = Ctx{ex: ex, frame: f}
	return f
}

// exitFrame performs the implicit sync of a returning Cilk function and
// emits FrameReturn. Every function that spawned must sync before it
// returns (§2); functions that never spawned return as a single strand.
func (ex *Executor) exitFrame(f *Frame) {
	if f.everSpawned {
		ex.syncFrame(f)
	}
	if len(f.slots) != 1 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"frame %v returning with %d unreduced views", f, len(f.slots)-1).WithFrame(int64(f.ID)))
	}
	if f.Parent != nil && ex.emit() {
		ex.hooks.FrameReturn(f, f.Parent)
	}
}

// syncFrame executes a cilk_sync in f: it forces every outstanding reduce
// operation of the sync block (view invariant 3), then emits the Sync event
// and opens the next sync block.
func (ex *Executor) syncFrame(f *Frame) {
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"sync inside a view-aware operation").WithFrame(int64(f.ID)))
	}
	if ex.order == ReduceMiddleFirst && len(f.slots) >= 3 {
		ex.reducePairAt(f, 1)
	}
	for len(f.slots) > 1 {
		ex.reducePairAt(f, len(f.slots)-2)
	}
	f.SyncBlock++
	f.LocalSpawns = 0
	ex.res.Syncs++
	if ex.emit() {
		ex.hooks.Sync(f)
	}
}

// reducePairAt reduces the adjacent pair of views slots[i] (dominating,
// surviving) and slots[i+1] (dominated, destroyed). The ReduceStart event
// precedes the user Reduce code so the SP+ P-bag union happens first (§6).
func (ex *Executor) reducePairAt(f *Frame, i int) {
	keep, die := f.slots[i], f.slots[i+1]
	if ex.emit() {
		ex.hooks.ReduceStart(f, keep.vid, die.vid)
	}
	for _, r := range die.order {
		rv := die.views[r]
		if lv, ok := keep.get(r); ok {
			ex.beginViewAware(f, OpReduce, r)
			nv := r.m.Combine(&f.ctx, lv, rv)
			ex.endViewAware(f, OpReduce, r)
			keep.set(r, nv)
		} else {
			// The dominating context never touched this reducer; the
			// dominated view transfers wholesale, no user code runs.
			keep.set(r, rv)
		}
	}
	f.slots = append(f.slots[:i+1], f.slots[i+2:]...)
	ex.res.Reduces++
	if ex.emit() {
		ex.hooks.ReduceEnd(f)
	}
}

func (ex *Executor) beginViewAware(f *Frame, op ViewOp, r *Reducer) {
	ex.viewAware++
	if ex.emit() {
		ex.hooks.ViewAwareBegin(f, op, r)
	}
}

func (ex *Executor) endViewAware(f *Frame, op ViewOp, r *Reducer) {
	if ex.emit() {
		ex.hooks.ViewAwareEnd(f, op, r)
	}
	ex.viewAware--
}

// Ctx is the handle a Cilk function uses to spawn, sync, access
// instrumented memory and operate on reducers. Each frame has its own Ctx;
// user code receives it as the first argument of every Cilk function body.
type Ctx struct {
	ex    *Executor
	frame *Frame
}

// Frame returns the Cilk function instantiation this context belongs to.
func (c *Ctx) Frame() *Frame { return c.frame }

// Spawn executes body as a spawned child Cilk function (cilk_spawn). The
// serial executor runs the child to completion and then evaluates whether
// the steal specification steals the continuation; if so a fresh identity
// view context begins (view invariant 2).
func (c *Ctx) Spawn(label string, body func(*Ctx)) {
	ex := c.ex
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"spawn inside a view-aware operation").WithFrame(int64(c.frame.ID)))
	}
	f := c.frame
	f.LocalSpawns++
	f.TotalSpawns++
	f.everSpawned = true
	ex.res.Spawns++

	child := ex.newFrame(f, label, true)
	if ex.emit() {
		ex.hooks.FrameEnter(child)
	}
	body(&child.ctx)
	ex.exitFrame(child)

	ex.contSeq++
	ci := ContInfo{
		Frame:     f,
		Label:     f.Label,
		Depth:     f.Depth,
		SyncBlock: f.SyncBlock,
		Index:     f.LocalSpawns,
		Seq:       ex.contSeq,
		PDepth:    f.AncestorSpawns + f.LocalSpawns,
	}

	if ex.gate != nil {
		ex.probe(ci)
	}
	if ex.spec.ShouldSteal(ci) {
		ex.nextView++
		ns := newViewSlot(ex.nextView)
		f.slots = append(f.slots, ns)
		ex.res.Views++
		ex.res.Steals = append(ex.res.Steals, ci)
		if ex.emit() {
			ex.hooks.ContinuationStolen(f, ns.vid)
		}
		if ex.eagerViews {
			for _, r := range ex.reducers {
				f.ctx.createIdentity(r, ns)
			}
		}
	}

	// Reduction scheduling. A view may be reduced only once no live strand
	// will use it again, so mid-execution reductions always exclude the
	// top view — the continuation now executing (stolen or not) holds it.
	// Views strictly below the top are complete in serial order, so
	// collapsing them corresponds to a real schedule in which their
	// subcomputations joined. A ReduceScheduler spec dictates exactly how
	// many pairs to collapse; the eager policy collapses all of them, as
	// the stock runtime's opportunistic reduction would.
	if rs, ok := ex.spec.(ReduceScheduler); ok {
		for n := rs.ReducesAfterReturn(ci); n > 0 && len(f.slots) > 2; n-- {
			ex.reducePairAt(f, len(f.slots)-3)
		}
	} else if ex.order == ReduceEager {
		for len(f.slots) > 2 {
			ex.reducePairAt(f, len(f.slots)-3)
		}
	}
}

// Call executes body as a called (not spawned) child Cilk function.
func (c *Ctx) Call(label string, body func(*Ctx)) {
	ex := c.ex
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"call inside a view-aware operation").WithFrame(int64(c.frame.ID)))
	}
	child := ex.newFrame(c.frame, label, false)
	if ex.emit() {
		ex.hooks.FrameEnter(child)
	}
	body(&child.ctx)
	ex.exitFrame(child)
}

// Sync executes a cilk_sync: all previously spawned children of this frame
// have returned (trivially true in serial order) and all parallel views of
// the sync block are reduced.
func (c *Ctx) Sync() {
	c.ex.syncFrame(c.frame)
}

// ParFor executes body(i) for i in [0, n) as a cilk_for with automatic
// grain size, expanding to the standard divide-and-conquer spawn tree.
func (c *Ctx) ParFor(label string, n int, body func(*Ctx, int)) {
	grain := n / 256
	if grain < 1 {
		grain = 1
	}
	c.ParForGrain(label, n, grain, body)
}

// ParForGrain is ParFor with an explicit grain size: leaves of the spawn
// tree execute up to grain consecutive iterations serially.
func (c *Ctx) ParForGrain(label string, n, grain int, body func(*Ctx, int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	c.Call(label, func(cc *Ctx) {
		parforRec(cc, label, 0, n, grain, body)
	})
}

func parforRec(c *Ctx, label string, lo, hi, grain int, body func(*Ctx, int)) {
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Spawn(label, func(cc *Ctx) {
		parforRec(cc, label, lo, mid, grain, body)
	})
	c.Call(label, func(cc *Ctx) {
		parforRec(cc, label, mid, hi, grain, body)
	})
	c.Sync()
}

// Load reports a read of address a by the currently executing strand.
func (c *Ctx) Load(a mem.Addr) {
	c.ex.res.Loads++
	if c.ex.emit() {
		c.ex.hooks.Load(c.frame, a)
	}
}

// Store reports a write of address a by the currently executing strand.
func (c *Ctx) Store(a mem.Addr) {
	c.ex.res.Stores++
	if c.ex.emit() {
		c.ex.hooks.Store(c.frame, a)
	}
}

// LoadRange reports reads of n consecutive addresses starting at a.
func (c *Ctx) LoadRange(a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		c.Load(a + mem.Addr(i))
	}
}

// StoreRange reports writes of n consecutive addresses starting at a.
func (c *Ctx) StoreRange(a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		c.Store(a + mem.Addr(i))
	}
}

// NewReducer declares a reducer hyperobject with the given monoid and
// initial (leftmost-view) value. Declaring a reducer is a reducer-read in
// the paper's sense, as is SetValue and Value; only Update and the
// runtime-invoked Create-Identity and Reduce operate on views.
func (c *Ctx) NewReducer(name string, m Monoid, initial any) *Reducer {
	r := c.NewReducerQuiet(name, m, initial)
	c.ex.res.Reads++
	if c.ex.emit() {
		c.ex.hooks.ReducerCreate(c.frame, r)
	}
	return r
}

// NewReducerQuiet declares a reducer without emitting the ReducerCreate
// (reducer-read) event, modeling a reducer constructed outside the measured
// computation — for instance a global reducer built before the Cilk region
// starts. Test fixtures use it to probe specific reducer-read pairs without
// the construction read participating.
func (c *Ctx) NewReducerQuiet(name string, m Monoid, initial any) *Reducer {
	ex := c.ex
	r := &Reducer{Name: name, m: m, idx: len(ex.reducers)}
	ex.reducers = append(ex.reducers, r)
	c.frame.top().set(r, initial)
	return r
}

// SetValue resets the reducer's current view to v (a reducer-read).
func (c *Ctx) SetValue(r *Reducer, v any) {
	c.ex.res.Reads++
	if c.ex.emit() {
		c.ex.hooks.ReducerRead(c.frame, r)
	}
	c.frame.top().set(r, v)
}

// Value retrieves the reducer's current view (a reducer-read, the paper's
// get_value). If the current view context has no view yet — which is
// exactly the situation where the retrieved value is schedule-dependent —
// an identity view materializes first.
func (c *Ctx) Value(r *Reducer) any {
	ex := c.ex
	ex.res.Reads++
	if ex.emit() {
		ex.hooks.ReducerRead(c.frame, r)
	}
	slot := c.frame.top()
	v, ok := slot.get(r)
	if !ok {
		v = c.createIdentity(r, slot)
	}
	return v
}

// Update applies body to the reducer's current view and stores the result
// back. If the current view context has no view for r — the first Update
// after a simulated steal — Create-Identity runs first, lazily, exactly as
// the runtime does (§2).
func (c *Ctx) Update(r *Reducer, body func(c *Ctx, view any) any) {
	ex := c.ex
	ex.res.Updates++
	slot := c.frame.top()
	v, ok := slot.get(r)
	if !ok {
		v = c.createIdentity(r, slot)
	}
	ex.beginViewAware(c.frame, OpUpdate, r)
	nv := body(c, v)
	ex.endViewAware(c.frame, OpUpdate, r)
	slot.set(r, nv)
}

func (c *Ctx) createIdentity(r *Reducer, slot *viewSlot) any {
	c.ex.beginViewAware(c.frame, OpCreateIdentity, r)
	v := r.m.Identity(c)
	c.ex.endViewAware(c.frame, OpCreateIdentity, r)
	slot.set(r, v)
	return v
}

// CurrentVID returns the view ID of the currently executing strand's view
// context, mainly for tests and the DAG recorder.
func (c *Ctx) CurrentVID() ViewID { return c.frame.CurrentVID() }
