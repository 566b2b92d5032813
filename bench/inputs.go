package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/trace"
)

// rng returns the deterministic generator for one purpose of one run:
// the same seed, round and purpose always yield the same stream.
func rng(seed int64, round int, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s", seed, round, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// appAt is one benchmark app at one input scale.
type appAt struct {
	app   apps.App
	scale apps.Scale
}

func (a appAt) String() string { return a.app.Name + "@" + a.scale.String() }

func (a appAt) build() *apps.Instance { return a.app.Build(mem.NewAllocator(), a.scale) }

func appsAt(scale apps.Scale, names ...string) []appAt {
	var out []appAt
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, appAt{app: a, scale: scale})
	}
	return out
}

var appNames = []string{"collision", "dedup", "ferret", "fib", "knapsack", "pbfs"}

// record runs prog under steal-all into a trace — the recording the
// replay, elide and serve workloads analyze.
func record(prog func(*cilk.Ctx)) ([]byte, int64, error) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), tw.Events(), nil
}

// serialEvents counts the instrumentation events of prog's serial
// execution: the work one verdict on the program covers.
func serialEvents(prog func(*cilk.Ctx)) int64 {
	var c eventCounter
	cilk.Run(prog, cilk.Config{Hooks: &c})
	return c.n
}

// eventCounter is a cilk.Hooks that counts every event.
type eventCounter struct{ n int64 }

func (c *eventCounter) ProgramStart(*cilk.Frame)                               { c.n++ }
func (c *eventCounter) ProgramEnd(*cilk.Frame)                                 { c.n++ }
func (c *eventCounter) FrameEnter(*cilk.Frame)                                 { c.n++ }
func (c *eventCounter) FrameReturn(_, _ *cilk.Frame)                           { c.n++ }
func (c *eventCounter) Sync(*cilk.Frame)                                       { c.n++ }
func (c *eventCounter) ContinuationStolen(*cilk.Frame, cilk.ViewID)            { c.n++ }
func (c *eventCounter) ReduceStart(*cilk.Frame, cilk.ViewID, cilk.ViewID)      { c.n++ }
func (c *eventCounter) ReduceEnd(*cilk.Frame)                                  { c.n++ }
func (c *eventCounter) ViewAwareBegin(*cilk.Frame, cilk.ViewOp, *cilk.Reducer) { c.n++ }
func (c *eventCounter) ViewAwareEnd(*cilk.Frame, cilk.ViewOp, *cilk.Reducer)   { c.n++ }
func (c *eventCounter) ReducerCreate(*cilk.Frame, *cilk.Reducer)               { c.n++ }
func (c *eventCounter) ReducerRead(*cilk.Frame, *cilk.Reducer)                 { c.n++ }
func (c *eventCounter) Load(*cilk.Frame, mem.Addr)                             { c.n++ }
func (c *eventCounter) Store(*cilk.Frame, mem.Addr)                            { c.n++ }
