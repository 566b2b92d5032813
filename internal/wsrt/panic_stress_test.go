package wsrt

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runExpectingPanic runs root and returns the propagated panic value,
// failing the test if the runtime hangs instead of quiescing (the latched
// panic must never stall the join) or completes without panicking.
func runExpectingPanic(t *testing.T, rt *Runtime, root func(*Ctx)) any {
	t.Helper()
	type result struct{ p any }
	ch := make(chan result, 1)
	go func() {
		defer func() { ch <- result{p: recover()} }()
		rt.Run(root)
	}()
	select {
	case res := <-ch:
		if res.p == nil {
			t.Fatal("run completed without the expected panic")
		}
		return res.p
	case <-time.After(30 * time.Second):
		t.Fatal("runtime failed to quiesce after a task panic")
		return nil
	}
}

// TestPanicUnderActiveThieves panics a single task in the middle of a wide
// spawn storm, with every sibling doing real reducer work to keep thieves
// busy: the exact panic value must come back out of Run, and the join must
// complete on the mutex deque.
func TestPanicUnderActiveThieves(t *testing.T) {
	t.Run("mutex", func(t *testing.T) {
		sum := MonoidFuncs(func() any { return 0 }, func(l, r any) any { return l.(int) + r.(int) })
		p := runExpectingPanic(t, New(8), func(c *Ctx) {
			r := c.NewReducer("sum", sum, 0)
			for i := 0; i < 400; i++ {
				i := i
				c.Spawn(func(cc *Ctx) {
					if i == 137 {
						panic("poison-137")
					}
					for j := 0; j < 50; j++ {
						cc.Update(r, func(v any) any { return v.(int) + 1 })
					}
				})
			}
			c.Sync()
		})
		if s, ok := p.(string); !ok || s != "poison-137" {
			t.Fatalf("panic value = %v (%T), want the first task's exact value", p, p)
		}
	})
}

// TestManyPanicsLatchFirst fires many concurrent panicking tasks: exactly
// one value is propagated, it is one of the injected values, and the
// runtime still quiesces. Repeated rounds shake out latch races under the
// race detector.
func TestManyPanicsLatchFirst(t *testing.T) {
	rt := New(8)
	for round := 0; round < 10; round++ {
		var fired atomic.Int64
		p := runExpectingPanic(t, rt, func(c *Ctx) {
			for i := 0; i < 64; i++ {
				i := i
				c.Spawn(func(*Ctx) {
					fired.Add(1)
					panic(fmt.Sprintf("poison-%d", i))
				})
			}
			c.Sync()
		})
		s, ok := p.(string)
		if !ok || !strings.HasPrefix(s, "poison-") {
			t.Fatalf("round %d: propagated %v (%T), not an injected value", round, p, p)
		}
		if fired.Load() == 0 {
			t.Fatalf("round %d: no task ran", round)
		}
	}
}

// TestPanicInNestedSpawnTree panics deep inside a recursive spawn tree
// while ancestors are mid-Sync (helping thieves), covering the path where
// the panicking task's parent is itself executing stolen work.
func TestPanicInNestedSpawnTree(t *testing.T) {
	rt := New(4)
	var depth func(c *Ctx, d int)
	depth = func(c *Ctx, d int) {
		if d == 0 {
			panic(999)
		}
		for i := 0; i < 3; i++ {
			c.Spawn(func(cc *Ctx) { depth(cc, d-1) })
		}
		c.Sync()
	}
	p := runExpectingPanic(t, rt, func(c *Ctx) { depth(c, 5) })
	if v, ok := p.(int); !ok || v != 999 {
		t.Fatalf("panic value = %v (%T), want 999", p, p)
	}
}

// TestRuntimeReusableAfterPanic pins that a runtime whose previous Run
// panicked starts the next Run with a clear latch and produces a correct
// reduction.
func TestRuntimeReusableAfterPanic(t *testing.T) {
	rt := New(4)
	runExpectingPanic(t, rt, func(c *Ctx) {
		c.Spawn(func(*Ctx) { panic("first run") })
		c.Sync()
	})
	sum := MonoidFuncs(func() any { return 0 }, func(l, r any) any { return l.(int) + r.(int) })
	var got int
	rt.Run(func(c *Ctx) {
		r := c.NewReducer("sum", sum, 0)
		c.ParFor(1000, 8, func(cc *Ctx, i int) {
			cc.Update(r, func(v any) any { return v.(int) + 1 })
		})
		got = c.Value(r).(int)
	})
	if got != 1000 {
		t.Fatalf("post-panic run reduced to %d, want 1000", got)
	}
}
