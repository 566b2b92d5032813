package progs

import (
	"repro/internal/cilk"
	"repro/internal/mem"
)

// BCtx is the bridged execution context: a program written against it
// runs unchanged on the serial cilk simulator (where every detector
// watches it) and live on the wsrt work-stealing runtime (where the depa
// live detector watches it during execution). The byte-parity contract
// between the two modes only makes sense because both substrates execute
// the same program text through this one interface.
type BCtx interface {
	// Spawn runs body as a spawned child that may execute in parallel
	// with the continuation.
	Spawn(label string, body func(BCtx))
	// Call runs body as a called child: a nested join scope, serial with
	// the caller.
	Call(label string, body func(BCtx))
	// Sync joins all children spawned in the current scope since the
	// last sync.
	Sync()
	// Load and Store report instrumented memory accesses.
	Load(a mem.Addr)
	Store(a mem.Addr)
}

// ParForGrain expands a parallel loop over [0, n) into the standard
// divide-and-conquer spawn tree with the exact shape of the serial
// executor's cilk_for — the expansion lives here, over BCtx, so both
// substrates get an identical frame and spawn structure.
func ParForGrain(c BCtx, label string, n, grain int, body func(BCtx, int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	c.Call(label, func(cc BCtx) {
		bridgeParforRec(cc, label, 0, n, grain, body)
	})
}

func bridgeParforRec(c BCtx, label string, lo, hi, grain int, body func(BCtx, int)) {
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Spawn(label, func(cc BCtx) {
		bridgeParforRec(cc, label, lo, mid, grain, body)
	})
	c.Call(label, func(cc BCtx) {
		bridgeParforRec(cc, label, mid, hi, grain, body)
	})
	c.Sync()
}

// cilkB adapts *cilk.Ctx to BCtx: running a bridged program through it
// under cilk.Run drives the serial detectors (the SP-bags baseline of the
// parity contract) or the trace recorder.
type cilkB struct{ c *cilk.Ctx }

// CilkProg runs a bridged program on the serial executor:
// cilk.Run(CilkProg(body), ...).
func CilkProg(body func(BCtx)) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) { body(cilkB{c}) }
}

func (b cilkB) Spawn(label string, body func(BCtx)) {
	b.c.Spawn(label, func(cc *cilk.Ctx) { body(cilkB{cc}) })
}

func (b cilkB) Call(label string, body func(BCtx)) {
	b.c.Call(label, func(cc *cilk.Ctx) { body(cilkB{cc}) })
}

func (b cilkB) Sync()            { b.c.Sync() }
func (b cilkB) Load(a mem.Addr)  { b.c.Load(a) }
func (b cilkB) Store(a mem.Addr) { b.c.Store(a) }

// DedupWorkload models the dedup kernel's detection-relevant shape: a
// parallel loop fingerprints content chunks (reading a shared input
// region, hashing into a private scratch cell per chunk) and writes each
// chunk's archive slot. With racy set, every chunk also bumps one shared
// duplicate counter — the classic reduction-turned-race.
func DedupWorkload(al *mem.Allocator, chunks int, racy bool) func(BCtx) {
	input := al.Alloc("input", chunks*4)
	slots := al.Alloc("slots", chunks)
	scratch := al.Alloc("scratch", chunks)
	dupes := al.Alloc("dupes", 1)
	return func(c BCtx) {
		ParForGrain(c, "chunk", chunks, 4, func(cc BCtx, i int) {
			// Fingerprint: read the chunk's input window, accumulate in
			// the chunk's private scratch cell.
			for k := 0; k < 4; k++ {
				cc.Load(input.At(i*4 + k))
				cc.Store(scratch.At(i))
			}
			cc.Load(scratch.At(i))
			cc.Store(slots.At(i))
			if racy {
				cc.Load(dupes.At(0))
				cc.Store(dupes.At(0))
			}
		})
	}
}

// FerretWorkload models the ferret pipeline's shape: each query spawns a
// scan over database segments, folding candidate distances into the
// query's private top-K cell; queries run in parallel. With racy set, the
// final rank stage of every query writes one shared global-best cell.
func FerretWorkload(al *mem.Allocator, queries, segments int, racy bool) func(BCtx) {
	db := al.Alloc("db", segments*4)
	topk := al.Alloc("topk", queries)
	best := al.Alloc("best", 1)
	return func(c BCtx) {
		ParForGrain(c, "query", queries, 1, func(cc BCtx, q int) {
			cc.Call("scan", func(sc BCtx) {
				for s := 0; s < segments; s++ {
					for k := 0; k < 4; k++ {
						sc.Load(db.At(s*4 + k))
					}
					sc.Load(topk.At(q))
					sc.Store(topk.At(q))
				}
			})
			if racy {
				cc.Load(best.At(0))
				cc.Store(best.At(0))
			}
		})
	}
}

// StressWorkload is the shard-scaling benchmark's subject. Each leaf owns
// one shadow page (the layout strides by mem.PageBits, so depa's
// page-granular shards get an even split), runs hot strand-local load/store bursts that
// the coalescing fast path absorbs, then scatters stores across its page
// so the detection phase has real shadow work per leaf, and finally reads
// a neighbour's (read-only) cell to keep cross-leaf traffic in the log.
// The scatter fills an eighth of the page so the per-entry shadow
// protocol, not the one-time zeroing of freshly allocated shadow pages,
// dominates the measured detection time.
func StressWorkload(al *mem.Allocator, leaves, work int) func(BCtx) {
	const pageStride = 1 << mem.PageBits
	const spread = pageStride / 8
	pool := al.Alloc("pool", leaves*pageStride)
	return func(c BCtx) {
		ParForGrain(c, "leaf", leaves, 1, func(cc BCtx, i int) {
			base := i * pageStride
			for k := 0; k < work; k++ {
				cc.Load(pool.At(base))
			}
			for k := 0; k < work; k++ {
				cc.Store(pool.At(base + 1))
			}
			for k := 0; k < spread; k++ {
				cc.Store(pool.At(base + 2 + k))
			}
			cc.Load(pool.At(((i + 1) % leaves) * pageStride))
		})
	}
}
