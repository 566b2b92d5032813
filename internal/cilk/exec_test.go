package cilk

import (
	"fmt"
	"testing"
)

func TestSetValueInStolenContinuation(t *testing.T) {
	// set_value replaces the *current* view; in a stolen continuation
	// that is the fresh identity view context, and the final value folds
	// it in serial position.
	var final []int
	Run(func(c *Ctx) {
		r := c.NewReducer("l", listMonoid, []int{1})
		c.Spawn("f", func(cc *Ctx) {
			cc.Update(r, func(_ *Ctx, v any) any { return append(v.([]int), 2) })
		})
		c.SetValue(r, []int{30}) // stolen continuation's view
		c.Update(r, func(_ *Ctx, v any) any { return append(v.([]int), 31) })
		c.Sync()
		final = c.Value(r).([]int)
	}, Config{Spec: StealAll{}})
	// Views: leftmost [1,2] (child updated the inherited view), stolen
	// continuation [30,31]; reduced in serial order.
	if fmt.Sprint(final) != "[1 2 30 31]" {
		t.Fatalf("final = %v", final)
	}
}

func TestSyncInsideViewAwarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sync inside Update must panic")
		}
	}()
	Run(func(c *Ctx) {
		r := c.NewReducer("h", sumMonoid, 0)
		c.Update(r, func(cc *Ctx, v any) any {
			cc.Sync()
			return v
		})
	}, Config{})
}

func TestCallInsideViewAwarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("call inside Update must panic")
		}
	}()
	Run(func(c *Ctx) {
		r := c.NewReducer("h", sumMonoid, 0)
		c.Update(r, func(cc *Ctx, v any) any {
			cc.Call("bad", func(*Ctx) {})
			return v
		})
	}, Config{})
}

func TestParForGrainExtremes(t *testing.T) {
	for _, grain := range []int{-5, 0, 1, 1000} {
		sum := 0
		Run(func(c *Ctx) {
			c.ParForGrain("w", 50, grain, func(_ *Ctx, i int) { sum += i })
		}, Config{Spec: StealAll{}})
		if sum != 1225 {
			t.Fatalf("grain %d: sum = %d", grain, sum)
		}
	}
}

func TestParForZeroAndNegative(t *testing.T) {
	ran := false
	Run(func(c *Ctx) {
		c.ParFor("w", 0, func(*Ctx, int) { ran = true })
		c.ParFor("w", -3, func(*Ctx, int) { ran = true })
	}, Config{})
	if ran {
		t.Fatal("empty loops must not run the body")
	}
}

func TestResultAccessCounters(t *testing.T) {
	res := Run(func(c *Ctx) {
		r := c.NewReducer("h", sumMonoid, 0)
		c.Load(5)
		c.Store(6)
		c.LoadRange(10, 3)
		c.StoreRange(20, 2)
		c.SetValue(r, 1)
		_ = c.Value(r)
		c.Update(r, func(_ *Ctx, v any) any { return v })
	}, Config{})
	if res.Loads != 4 || res.Stores != 3 {
		t.Fatalf("loads/stores = %d/%d, want 4/3", res.Loads, res.Stores)
	}
	if res.Reads != 3 { // create + set + value
		t.Fatalf("reducer-reads = %d, want 3", res.Reads)
	}
	if res.Updates != 1 {
		t.Fatalf("updates = %d, want 1", res.Updates)
	}
}

func TestContInfoString(t *testing.T) {
	var label string
	spy := stealSpy{f: func(ci ContInfo) { label = ci.String() }}
	Run(func(c *Ctx) {
		c.Spawn("child", func(*Ctx) {})
		c.Sync()
	}, Config{Spec: spy})
	if label != "main/b0/c1@1" {
		t.Fatalf("label = %q", label)
	}
}

type stealSpy struct{ f func(ContInfo) }

func (s stealSpy) ShouldSteal(ci ContInfo) bool { s.f(ci); return false }
func (s stealSpy) Order() ReduceOrder           { return ReduceAtSync }

func TestViewOpString(t *testing.T) {
	if OpUpdate.String() != "Update" || OpCreateIdentity.String() != "Create-Identity" ||
		OpReduce.String() != "Reduce" {
		t.Fatal("ViewOp strings")
	}
}

func TestFrameString(t *testing.T) {
	var s string
	Run(func(c *Ctx) { s = c.Frame().String() }, Config{})
	if s != "main#0" {
		t.Fatalf("frame string = %q", s)
	}
	var nilFrame *Frame
	if nilFrame.String() != "<nil frame>" {
		t.Fatal("nil frame string")
	}
}

func TestMultipleReducersIndependentViews(t *testing.T) {
	var a, b int
	Run(func(c *Ctx) {
		ra := c.NewReducer("a", sumMonoid, 0)
		rb := c.NewReducer("b", sumMonoid, 100)
		c.ParForGrain("w", 10, 1, func(cc *Ctx, i int) {
			if i%2 == 0 {
				cc.Update(ra, func(_ *Ctx, v any) any { return v.(int) + 1 })
			} else {
				cc.Update(rb, func(_ *Ctx, v any) any { return v.(int) + 1 })
			}
		})
		a, b = c.Value(ra).(int), c.Value(rb).(int)
	}, Config{Spec: StealAll{Reduce: ReduceEager}})
	if a != 5 || b != 105 {
		t.Fatalf("a=%d b=%d, want 5/105", a, b)
	}
}

func TestUnreducedViewsPanicIsImpossibleViaPublicAPI(t *testing.T) {
	// Whatever spec is supplied, every frame return must see exactly one
	// view slot; exercise a pathological spec that steals everything with
	// middle-first reduction and deep nesting.
	var deep func(c *Ctx, d int)
	deep = func(c *Ctx, d int) {
		if d == 0 {
			return
		}
		r := c.NewReducer("h", sumMonoid, 0)
		for i := 0; i < 3; i++ {
			c.Spawn("x", func(cc *Ctx) {
				cc.Update(r, func(_ *Ctx, v any) any { return v.(int) + 1 })
				deep(cc, d-1)
			})
		}
		c.Sync()
		if got := c.Value(r).(int); got != 3 {
			t.Fatalf("depth %d: %d", d, got)
		}
	}
	Run(func(c *Ctx) { deep(c, 4) }, Config{Spec: StealAll{Reduce: ReduceMiddleFirst}})
}
