package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// spanNames are the spans the benchmark records, one per layer call it
// makes, each named after the module it calls into. "op" is the whole
// operation; its self time is the benchmark's own glue.
var spanNames = []string{
	"op",
	"rader.run",
	"rader.sweep",
	"trace.replay",
	"trace.replay_skip",
	"elide.analyze",
	"elide.fixup",
	"report.build",
	"report.marshal",
	"http.analyze",
	"http.decode",
}

// opSpans records one operation's spans on its client's lane. A nil
// *opSpans records nothing, so untraced runs pay one branch per span.
type opSpans struct {
	tr    *obs.Trace
	tid   int
	id    int64
	stack []string
}

func noEnd() {}

// beginOp opens the operation's root span.
func (s *opSpans) beginOp(cell string) func() {
	if s == nil {
		return noEnd
	}
	return s.push("op", s.tr.StartTID(s.tid, "op").Arg("op", s.id).Arg("cell", cell))
}

// begin opens a child span around one layer call and returns its end.
func (s *opSpans) begin(name string) func() {
	if s == nil {
		return noEnd
	}
	parent := s.stack[len(s.stack)-1]
	return s.push(name, s.tr.StartTID(s.tid, name).Arg("op", s.id).Arg("parent", parent))
}

func (s *opSpans) push(name string, sp *obs.Span) func() {
	s.stack = append(s.stack, name)
	return func() {
		s.stack = s.stack[:len(s.stack)-1]
		sp.End()
	}
}

// opTree is one traced operation: its cell, its wall time, and each span
// name's inclusive and self time within it.
type opTree struct {
	cell string
	wall time.Duration
	incl map[string]time.Duration
	self map[string]time.Duration
}

// spanStats is the analysis of a traced phase.
type spanStats struct {
	ops  map[int64]*opTree
	self map[string]time.Duration
}

// analyzeSpans rebuilds each operation's span tree from containment on
// its lane (a span's parent is the innermost span enclosing it) and
// computes self time: a span's duration minus its direct children's.
func analyzeSpans(recs []obs.SpanRecord) *spanStats {
	st := &spanStats{ops: map[int64]*opTree{}, self: map[string]time.Duration{}}
	byOp := map[int64][]obs.SpanRecord{}
	for _, r := range recs {
		id, ok := argInt(r.Args, "op")
		if !ok {
			continue
		}
		byOp[id] = append(byOp[id], r)
	}
	for id, spans := range byOp {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Dur > spans[j].Dur
		})
		t := &opTree{incl: map[string]time.Duration{}, self: map[string]time.Duration{}}
		children := make([]time.Duration, len(spans))
		var stack []int
		for i, s := range spans {
			for len(stack) > 0 {
				top := spans[stack[len(stack)-1]]
				if s.Start >= top.Start+top.Dur {
					stack = stack[:len(stack)-1]
					continue
				}
				break
			}
			if len(stack) > 0 {
				children[stack[len(stack)-1]] += s.Dur
			}
			stack = append(stack, i)
			if s.Name == "op" {
				t.wall = s.Dur
				t.cell, _ = argString(s.Args, "cell")
			}
		}
		for i, s := range spans {
			self := s.Dur - children[i]
			t.incl[s.Name] += s.Dur
			t.self[s.Name] += self
			st.self[s.Name] += self
		}
		st.ops[id] = t
	}
	return st
}

// coveredFrac is the share of traced operation time that layer spans
// account for: 1 minus the benchmark glue's share.
func (st *spanStats) coveredFrac() float64 {
	var wall, glue time.Duration
	for _, t := range st.ops {
		wall += t.wall
		glue += t.self["op"]
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(glue)/float64(wall)
}

// cellIncl collects, per cell, the inclusive durations of span name
// across operations (one sample per operation that has the span).
func (st *spanStats) cellIncl(name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, t := range st.ops {
		if d, ok := t.incl[name]; ok {
			out[t.cell] = append(out[t.cell], float64(d))
		}
	}
	return out
}

// total is the summed inclusive time of span name over all operations.
func (st *spanStats) total(name string) time.Duration {
	var sum time.Duration
	for _, t := range st.ops {
		sum += t.incl[name]
	}
	return sum
}

// print renders each layer's self time per operation.
func (st *spanStats) print(w io.Writer, ops int) {
	fmt.Fprintf(w, "self time per operation over %d traced operations (layers covering %.1f%% of op time):\n",
		ops, 100*st.coveredFrac())
	n := math.Max(float64(ops), 1)
	for _, name := range spanNames {
		if d := st.self[name]; d > 0 {
			fmt.Fprintf(w, "  %-20s %12.4f ms\n", name, ms(d)/n)
		}
	}
}

func argInt(args []obs.Arg, key string) (int64, bool) {
	for _, a := range args {
		if a.Key == key {
			v, ok := a.Value.(int64)
			return v, ok
		}
	}
	return 0, false
}

func argString(args []obs.Arg, key string) (string, bool) {
	for _, a := range args {
		if a.Key == key {
			v, ok := a.Value.(string)
			return v, ok
		}
	}
	return "", false
}
