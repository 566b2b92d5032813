package cilk

import (
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/streamerr"
)

// gateProg emits every event class around four continuation probes: each
// spawned child updates a reducer and stores, each continuation loads and
// calls a function that updates the reducer again, so specs that reduce
// between probes interleave reductions with the rest.
func gateProg(c *Ctx) {
	r := c.NewReducer("h", sumMonoid, 0)
	for i := 0; i < 4; i++ {
		c.Spawn("w", func(cc *Ctx) {
			cc.Update(r, func(_ *Ctx, v any) any { return v.(int) + i })
			cc.Store(mem.Addr(i))
		})
		c.Load(mem.Addr(i))
		c.Call("f", func(cc *Ctx) {
			cc.Update(r, func(_ *Ctx, v any) any { return v.(int) + 1 })
		})
	}
	c.Sync()
	_ = c.Value(r)
}

// stealAllScheduler steals everything and reduces one pair after every
// return: a ReduceScheduler spec.
type stealAllScheduler struct{ StealAll }

func (stealAllScheduler) ReducesAfterReturn(ContInfo) int { return 1 }

var gateSpecs = []struct {
	name string
	spec StealSpec
}{
	{"steal-all", StealAll{}},
	{"steal-all-eager", StealAll{Reduce: ReduceEager}},
	{"reduce-scheduler", stealAllScheduler{}},
}

// summary renders a Result without its frame pointers, so results of two
// runs compare equal when they did the same work.
func summary(res *Result) string {
	steals := make([]string, len(res.Steals))
	for i, ci := range res.Steals {
		steals[i] = ci.String()
	}
	r := *res
	r.Steals = nil
	return fmt.Sprintf("%+v steals=%v", r, steals)
}

// probeMarks runs prog ungated and returns its event stream, its Result
// and, for each probe k, how many events preceded it (marks[k-1]).
func probeMarks(t *testing.T, spec StealSpec) (full []string, marks []int, res *Result) {
	t.Helper()
	ref := &eventLog{}
	res = Run(gateProg, Config{Spec: spec, Hooks: ref})

	log := &eventLog{}
	Run(gateProg, Config{Spec: spec, Hooks: log, Gate: &Gate{OnProbe: func(ci ContInfo) {
		if ci.Seq != len(marks)+1 {
			t.Fatalf("probe %d arrived after %d probes", ci.Seq, len(marks))
		}
		marks = append(marks, len(log.lines))
	}}})
	if !slices.Equal(log.lines, ref.lines) {
		t.Fatal("a gate with From 0 changed the event stream")
	}
	if len(marks) != 4 {
		t.Fatalf("OnProbe saw %d probes, want 4", len(marks))
	}
	return ref.lines, marks, res
}

// For every probe k, a run gated at k delivers exactly the ungated
// stream's suffix from probe k, withholds exactly its prefix, and does the
// same work: same steals, views and reduces.
func TestGateSuffixMatchesLiveSuffix(t *testing.T) {
	for _, tc := range gateSpecs {
		t.Run(tc.name, func(t *testing.T) {
			full, marks, want := probeMarks(t, tc.spec)
			for k := 1; k <= len(marks); k++ {
				log := &eventLog{}
				g := &Gate{From: k}
				res := Run(gateProg, Config{Spec: tc.spec, Hooks: log, Gate: g})
				if !slices.Equal(log.lines, full[marks[k-1]:]) {
					t.Fatalf("From %d delivered\n%v\nwant the suffix\n%v", k, log.lines, full[marks[k-1]:])
				}
				if g.Withheld != int64(marks[k-1]) || int(g.Withheld)+len(log.lines) != len(full) {
					t.Fatalf("From %d: withheld %d + delivered %d, want %d + %d",
						k, g.Withheld, len(log.lines), marks[k-1], len(full)-marks[k-1])
				}
				if summary(res) != summary(want) {
					t.Fatalf("From %d changed the run:\n%s\nwant\n%s", k, summary(res), summary(want))
				}
			}
		})
	}
}

// A gate that never opens withholds the whole stream and counts it; a gate
// with From 0 is transparent.
func TestGateSuppressesUntilActivated(t *testing.T) {
	full, _, _ := probeMarks(t, StealAll{})
	log := &eventLog{}
	closed := &Gate{From: 5}
	Run(gateProg, Config{Spec: StealAll{}, Hooks: log, Gate: closed})
	if len(log.lines) != 0 || closed.Withheld != int64(len(full)) {
		t.Fatalf("closed gate delivered %d events and withheld %d of %d", len(log.lines), closed.Withheld, len(full))
	}
	open := &Gate{}
	Run(gateProg, Config{Spec: StealAll{}, Hooks: log, Gate: open})
	if len(log.lines) != len(full) || open.Withheld != 0 {
		t.Fatalf("open gate delivered %d events and withheld %d, want %d and 0", len(log.lines), open.Withheld, len(full))
	}
}

// OnProbe sees every probe in Seq order, before its steal decision, and
// before the gate opens at it.
func TestGateOnProbeSeesEveryProbe(t *testing.T) {
	for _, tc := range gateSpecs {
		t.Run(tc.name, func(t *testing.T) {
			full, marks, _ := probeMarks(t, tc.spec)
			for _, m := range marks {
				// Every spec here steals every continuation, so the event
				// right after a probe is its steal.
				if !strings.HasPrefix(full[m], "stolen ") {
					t.Fatalf("OnProbe ran after event %q, not right before a steal", full[m])
				}
			}
			for from := 0; from <= 5; from++ {
				log := &eventLog{}
				var seqs []int
				g := &Gate{From: from}
				g.OnProbe = func(ci ContInfo) {
					seqs = append(seqs, ci.Seq)
					if ci.Seq == from && len(log.lines) != 0 {
						t.Fatalf("From %d: %d events delivered before the opening probe", from, len(log.lines))
					}
				}
				res := Run(gateProg, Config{Spec: tc.spec, Hooks: log, Gate: g})
				if !slices.Equal(seqs, []int{1, 2, 3, 4}) {
					t.Fatalf("From %d: OnProbe saw %v", from, seqs)
				}
				if len(res.Steals) != 4 {
					t.Fatalf("From %d: %d steals, want 4", from, len(res.Steals))
				}
			}
		})
	}
}

// stream runs gateProg under cfg and returns what its hooks received and
// the *streamerr.Error it aborted with (nil if it finished).
func stream(t *testing.T, cfg Config) (lines []string, serr *streamerr.Error) {
	t.Helper()
	log := &eventLog{}
	if cfg.Hooks == nil {
		cfg.Hooks = log
	}
	defer func() {
		if p := recover(); p != nil {
			if !errors.As(streamerr.FromPanic("test", p), &serr) || serr.Layer != "cilk" {
				t.Fatalf("abort panicked with %v, want a cilk *streamerr.Error", p)
			}
			lines = log.lines
		}
	}()
	Run(gateProg, cfg)
	return log.lines, nil
}

// The budget aborts before the first event past it, naming that event;
// every event counts, delivered or withheld, and a gate's Withheld holds
// what the aborted run withheld.
func TestBudgetCountsEveryEvent(t *testing.T) {
	full, marks, _ := probeMarks(t, StealAll{})
	for _, from := range []int{0, 2} {
		skip := 0
		if from > 0 {
			skip = marks[from-1]
		}
		for budget := 1; budget <= len(full); budget++ {
			g := &Gate{From: from}
			lines, serr := stream(t, Config{Spec: StealAll{}, Gate: g, EventBudget: int64(budget)})
			if budget == len(full) {
				if serr != nil {
					t.Fatalf("From %d: a budget of exactly the stream aborted: %v", from, serr)
				}
				continue
			}
			if serr == nil || serr.Kind != streamerr.KindBudget || serr.Event != int64(budget) {
				t.Fatalf("From %d budget %d: got %v, want KindBudget at event %d", from, budget, serr, budget)
			}
			if want := full[min(skip, budget):budget]; !slices.Equal(lines, want) {
				t.Fatalf("From %d budget %d: delivered %v, want %v", from, budget, lines, want)
			}
			if g.Withheld != int64(min(skip, budget)) {
				t.Fatalf("From %d budget %d: withheld %d, want %d", from, budget, g.Withheld, min(skip, budget))
			}
		}
	}
}

// A passed deadline aborts at event 0, before any hook runs; a future one
// does not interfere.
func TestDeadlineAbortsAtFirstCheck(t *testing.T) {
	lines, serr := stream(t, Config{Spec: StealAll{}, Deadline: time.Now().Add(-time.Second)})
	if serr == nil || serr.Kind != streamerr.KindDeadline || serr.Event != 0 || len(lines) != 0 {
		t.Fatalf("got %v after %d events, want KindDeadline at event 0", serr, len(lines))
	}
	if _, serr := stream(t, Config{Spec: StealAll{}, Deadline: time.Now().Add(time.Hour)}); serr != nil {
		t.Fatalf("future deadline aborted: %v", serr)
	}
}

// emit sits on every event of every run, so it must stay small enough for
// the compiler to inline it at each emission site.
func TestEmitInlines(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`can inline \(\*Executor\)\.emit\b`).Match(out) {
		t.Fatalf("(*Executor).emit is no longer inlinable:\n%s", out)
	}
	if n := len(regexp.MustCompile(`inlining call to \(\*Executor\)\.emit\b`).FindAll(out, -1)); n < 17 {
		t.Fatalf("emit inlined at %d sites, want every one of the 17", n)
	}
}
