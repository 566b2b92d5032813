// Package wsrt is a parallel work-stealing runtime with reducer
// hyperobjects: the substrate a Cilk program actually runs on when it is
// not being analysed by the serial detectors. Workers keep double-ended
// task queues, push spawned children, pop from the bottom like a stack,
// and steal from the top of random victims' deques when idle — the
// Blumofe–Leiserson discipline the paper's §2 describes.
//
// Go cannot capture a goroutine's continuation, so unlike Cilk's
// continuation stealing this runtime steals *children* (help-first): Spawn
// enqueues the child and the parent keeps running its continuation; at
// Sync the parent drains its own deque and helps finish stolen children.
// Reducer views adapt to child stealing: every task keeps a private
// hypermap whose identity views materialize lazily, a task's own updates
// are segmented by its spawns to keep them ordered relative to its
// children, and everything reduces in serial order at the sync, so an
// associative monoid yields the serial result — the determinism property
// TestDeterministicAcrossWorkers checks across worker counts. The serial
// race detectors never run on this substrate; it exists to validate
// reducer semantics end-to-end under real parallelism and to serve the
// examples.
package wsrt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Monoid defines a reducer over view type any, mirroring cilk.Monoid but
// without the serial executor's context (user code here is ordinary Go).
type Monoid interface {
	Identity() any
	Combine(left, right any) any
}

// MonoidFuncs adapts closures to Monoid.
func MonoidFuncs(identity func() any, combine func(l, r any) any) Monoid {
	return monoidFuncs{identity: identity, combine: combine}
}

type monoidFuncs struct {
	identity func() any
	combine  func(l, r any) any
}

func (m monoidFuncs) Identity() any        { return m.identity() }
func (m monoidFuncs) Combine(l, r any) any { return m.combine(l, r) }

// Runtime is one work-stealing scheduler instance.
type Runtime struct {
	workers  int
	steals   atomic.Int64
	spawns   atomic.Int64
	deques   []*mutexDeque
	states   []*workerState
	panicked atomic.Pointer[panicBox]
	guard    *guard
}

// panicBox carries a panic value from a worker to Run.
type panicBox struct{ value any }

// New creates a runtime with n workers (0 means GOMAXPROCS).
func New(n int) *Runtime {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runtime{workers: n}
}

// Workers reports the worker count.
func (rt *Runtime) Workers() int { return rt.workers }

// Steals reports how many tasks ran on a worker other than their spawner
// during the last Run — the events that create reducer views.
func (rt *Runtime) Steals() int64 { return rt.steals.Load() }

// Spawns reports the number of spawned tasks during the last Run.
func (rt *Runtime) Spawns() int64 { return rt.spawns.Load() }

// task is one spawned child: a closure plus join bookkeeping.
type task struct {
	run   func(*Ctx)
	owner int // worker that spawned it
	// view state for the joining parent: filled when the task completes
	// on a remote worker.
	views map[*Reducer]any
	done  chan struct{}
	// stolen is set when a worker other than owner executes the task.
	stolen bool
}

// Reducer is a hyperobject registered with a Run.
type Reducer struct {
	name string
	m    Monoid
	idx  int
}

// String implements fmt.Stringer.
func (r *Reducer) String() string { return fmt.Sprintf("wsrt.reducer(%s)", r.name) }

// Ctx is the per-task execution context: it knows the executing worker
// and carries the task's hypermap (lazy views per reducer).
type Ctx struct {
	rt     *Runtime
	worker *workerState
	frame  *frame
}

// frame tracks one task's spawn scope. To preserve the serial reduction
// order for non-commutative monoids, the task's own updates are segmented
// by its spawns: updates before a spawn belong to an earlier view segment
// than the spawned child's, which in turn precedes updates made after the
// spawn. items interleaves sealed parent segments with children in serial
// order; cur is the open segment.
type frame struct {
	items []joinItem
	cur   map[*Reducer]any // nil until the segment's first update
}

// joinItem is either a sealed parent view segment or a spawned child.
type joinItem struct {
	views map[*Reducer]any
	child *task
}

type workerState struct {
	id    int
	rt    *Runtime
	deque *mutexDeque
	rng   *rand.Rand
}

// Run executes root on the runtime and blocks until it completes.
func (rt *Runtime) Run(root func(*Ctx)) {
	rt.steals.Store(0)
	rt.spawns.Store(0)
	deques := make([]*mutexDeque, rt.workers)
	for i := range deques {
		deques[i] = &mutexDeque{}
	}
	states := make([]*workerState, rt.workers)
	for i := range states {
		states[i] = &workerState{id: i, rt: rt, deque: deques[i], rng: rand.New(rand.NewSource(int64(i) + 1))}
	}
	rt.deques = deques
	rt.states = states

	rootTask := &task{
		run:   root,
		owner: 0,
		done:  make(chan struct{}),
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 1; i < rt.workers; i++ {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			ws.scavenge(stop)
		}(states[i])
	}
	rt.panicked.Store(nil)
	states[0].execute(rootTask)
	close(stop)
	wg.Wait()
	if pb := rt.panicked.Load(); pb != nil {
		panic(pb.value)
	}
}

// scavenge loops stealing tasks until stopped.
func (ws *workerState) scavenge(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if t := ws.findWork(); t != nil {
			ws.execute(t)
		} else {
			runtime.Gosched()
		}
	}
}

// findWork pops locally, then tries random victims.
func (ws *workerState) findWork() *task {
	if t := ws.deque.popBottom(); t != nil {
		return t
	}
	n := len(ws.rt.deques)
	for attempt := 0; attempt < n; attempt++ {
		victim := ws.rng.Intn(n)
		if victim == ws.id {
			continue
		}
		if t := ws.rt.deques[victim].stealTop(); t != nil {
			ws.rt.steals.Add(1)
			t.stolen = true
			return t
		}
	}
	return nil
}

// execute runs one task to completion on this worker. Every task keeps a
// private hypermap that starts empty — identity views materialize lazily
// on first update — because child stealing cannot tell in advance whether
// the task will run on its spawner's worker. An unstolen child's private
// map then merges into its parent's at the join exactly as a stolen one's
// would; associativity makes the result identical to sharing the view, at
// the cost of more view churn than continuation-stealing Cilk.
func (ws *workerState) execute(t *task) {
	defer func() {
		if p := recover(); p != nil {
			// Latch the first panic; the root's Run rethrows it after
			// all workers quiesce, so a panicking task cannot silently
			// kill one worker and hang the join.
			ws.rt.panicked.CompareAndSwap(nil, &panicBox{value: p})
		}
		close(t.done)
	}()
	fr := &frame{}
	ctx := &Ctx{rt: ws.rt, worker: ws, frame: fr}
	t.run(ctx)
	ctx.Sync() // implicit sync before the task returns
	t.views = fr.cur
}

// Call runs body as a called (not spawned) child scope on the same
// worker: a nested join context whose spawns are joined by body's own
// Sync — plus an implicit one at return — without joining the caller's
// outstanding children. This mirrors a plain function call in Cilk: the
// callee must sync its own spawns before returning (§2). The callee's
// final view segment folds into the caller's current segment, preserving
// the serial reduction order.
func (c *Ctx) Call(body func(*Ctx)) {
	fr := &frame{}
	ctx := &Ctx{rt: c.rt, worker: c.worker, frame: fr}
	body(ctx)
	ctx.Sync()
	if fr.cur != nil {
		pf := c.frame
		if pf.cur == nil {
			pf.cur = fr.cur
		} else {
			for r, rv := range fr.cur {
				if lv, ok := pf.cur[r]; ok {
					pf.cur[r] = r.m.Combine(lv, rv)
				} else {
					pf.cur[r] = rv
				}
			}
		}
	}
}

// Spawn schedules body to run in parallel with the continuation, sealing
// the current view segment so later updates stay ordered after the child.
func (c *Ctx) Spawn(body func(*Ctx)) {
	c.rt.spawns.Add(1)
	t := &task{run: body, owner: c.worker.id, done: make(chan struct{})}
	fr := c.frame
	if fr.cur != nil {
		fr.items = append(fr.items, joinItem{views: fr.cur})
		fr.cur = nil
	}
	fr.items = append(fr.items, joinItem{child: t})
	c.worker.deque.pushBottom(t)
}

// Sync joins all children spawned by this task so far, folding sealed
// parent segments and children's views in serial order. The syncing worker
// helps: while a child is outstanding it runs other pending work instead
// of blocking idle.
func (c *Ctx) Sync() {
	fr := c.frame
	var acc map[*Reducer]any
	fold := func(views map[*Reducer]any) {
		if views == nil {
			return
		}
		if acc == nil {
			acc = views
			return
		}
		for r, rv := range views {
			if lv, ok := acc[r]; ok {
				acc[r] = r.m.Combine(lv, rv)
			} else {
				acc[r] = rv
			}
		}
	}
	for _, item := range fr.items {
		if item.child == nil {
			fold(item.views)
			continue
		}
		child := item.child
	wait:
		for {
			select {
			case <-child.done:
				break wait
			default:
				// Help: run pending work rather than idling. Never block
				// outright — the child may sit in another worker's deque
				// whose owner is itself waiting, so someone must keep
				// scanning.
				if t := c.worker.findWork(); t != nil {
					c.worker.execute(t)
				} else {
					runtime.Gosched()
				}
			}
		}
		fold(child.views)
	}
	fold(fr.cur)
	fr.items = fr.items[:0]
	fr.cur = acc
}

// ParFor runs body(i) for i in [0,n) with divide-and-conquer spawning.
func (c *Ctx) ParFor(n, grain int, body func(*Ctx, int)) {
	if grain < 1 {
		grain = 1
	}
	var rec func(c *Ctx, lo, hi int)
	rec = func(c *Ctx, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			lo2, hi2 := lo, mid
			c.Spawn(func(cc *Ctx) { rec(cc, lo2, hi2) })
			lo = mid
		}
		for i := lo; i < hi; i++ {
			body(c, i)
		}
	}
	rec(c, 0, n)
	c.Sync()
}

// Update applies f to the current view segment of r, creating an identity
// view lazily on the segment's first update.
func (c *Ctx) Update(r *Reducer, f func(view any) any) {
	if c.frame.cur == nil {
		c.frame.cur = make(map[*Reducer]any)
	}
	v, ok := c.frame.cur[r]
	if !ok {
		v = r.m.Identity()
	}
	c.frame.cur[r] = f(v)
}

// Value reads the task's current view after a Sync; meaningful at the
// root after all children joined (reading elsewhere is exactly the
// view-read race the Peer-Set algorithm exists to catch — and what the
// always-on guard flags when enabled).
func (c *Ctx) Value(r *Reducer) any {
	c.rt.flagViewRead(r, "get", len(c.frame.items))
	if c.frame.cur == nil {
		return r.m.Identity()
	}
	if v, ok := c.frame.cur[r]; ok {
		return v
	}
	return r.m.Identity()
}

// SetValue resets the task's current view.
func (c *Ctx) SetValue(r *Reducer, v any) {
	c.rt.flagViewRead(r, "set", len(c.frame.items))
	if c.frame.cur == nil {
		c.frame.cur = make(map[*Reducer]any)
	}
	c.frame.cur[r] = v
}

// NewReducer registers a reducer with initial value v in the calling
// task's view map.
func (c *Ctx) NewReducer(name string, m Monoid, v any) *Reducer {
	r := &Reducer{name: name, m: m}
	c.SetValue(r, v)
	return r
}
