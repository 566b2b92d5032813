package rader

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/streamerr"
)

func fig1() func(*cilk.Ctx) {
	return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{})
}

func TestRunBadDetectorIsError(t *testing.T) {
	out, err := Run(fig1(), Config{Detector: "bogus"})
	if err == nil || out != nil {
		t.Fatalf("bad detector: out=%v err=%v, want nil+error", out, err)
	}
}

func TestRunRecoversProgramPanic(t *testing.T) {
	out, err := Run(func(c *cilk.Ctx) { panic("user code exploded") }, Config{Detector: SPPlus})
	if out != nil {
		t.Fatal("panicking program produced an outcome")
	}
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindConsumer {
		t.Fatalf("got %v, want KindConsumer", err)
	}
}

func TestRunEventBudget(t *testing.T) {
	out, err := Run(fig1(), Config{Detector: SPPlus, Spec: cilk.StealAll{}, EventBudget: 10})
	if out != nil {
		t.Fatal("over-budget run produced an outcome")
	}
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindBudget {
		t.Fatalf("got %v, want KindBudget", err)
	}
	if se.Event < 0 {
		t.Fatalf("budget error names no event: %v", se)
	}
	// A generous budget does not interfere.
	if _, err := Run(fig1(), Config{Detector: SPPlus, Spec: cilk.StealAll{}, EventBudget: 1 << 30}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

// An uninstrumented run is counted like an instrumented one: None under a
// budget aborts at the same event, with the same error, as EmptyTool.
func TestRunNoneCountsEventsUnderBudget(t *testing.T) {
	for _, budget := range []int64{1, 10, 40, 60} {
		_, none := Run(fig1(), Config{Detector: None, Spec: cilk.StealAll{}, EventBudget: budget})
		_, empty := Run(fig1(), Config{Detector: EmptyTool, Spec: cilk.StealAll{}, EventBudget: budget})
		var se *streamerr.Error
		if !errors.As(none, &se) || se.Kind != streamerr.KindBudget || se.Event != budget {
			t.Fatalf("budget %d: None got %v, want KindBudget at event %d", budget, none, budget)
		}
		if empty == nil || none.Error() != empty.Error() {
			t.Fatalf("budget %d: None failed with %v, EmptyTool with %v", budget, none, empty)
		}
	}
	if _, err := Run(fig1(), Config{Detector: None, Spec: cilk.StealAll{}, EventBudget: 1 << 30}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

func TestRunDeadline(t *testing.T) {
	_, err := Run(fig1(), Config{
		Detector: SPPlus, Spec: cilk.StealAll{},
		Timeout: time.Nanosecond,
	})
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindDeadline {
		t.Fatalf("got %v, want KindDeadline", err)
	}
}

func TestMustRunPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun swallowed the error")
		}
	}()
	MustRun(fig1(), Config{Detector: "bogus"})
}

func TestSweepDeadlineDegrades(t *testing.T) {
	factory := func() func(*cilk.Ctx) {
		return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{DeepCopy: true})
	}
	// A 1ns timeout has always expired by the time the first deadline
	// poll happens; the whole sweep must degrade into deadline failures.
	cr := Sweep(factory, SweepOptions{Timeout: time.Nanosecond})
	if cr == nil {
		t.Fatal("expired sweep returned nil")
	}
	if cr.Complete() {
		t.Fatal("sweep past its deadline reports Complete")
	}
	if cr.SpecsRun != 0 {
		t.Fatalf("specs still ran past the deadline: %d", cr.SpecsRun)
	}
	for _, sf := range cr.Failures {
		var se *streamerr.Error
		if !errors.As(sf.Err, &se) || se.Kind != streamerr.KindDeadline {
			t.Fatalf("failure %v is not a deadline error", sf)
		}
	}
	if cr.ViewReads == nil {
		t.Fatal("ViewReads must stay non-nil on failure")
	}
}

func TestSweepPoisonedProfile(t *testing.T) {
	// A program that panics on its very first run poisons the profiling
	// stage; the sweep must report that single failure and return.
	cr := Sweep(func() func(*cilk.Ctx) {
		return func(c *cilk.Ctx) { panic("boom") }
	}, SweepOptions{})
	if len(cr.Failures) != 1 || cr.Failures[0].Spec != "profile" {
		t.Fatalf("failures = %v, want one profile failure", cr.Failures)
	}
	if cr.ViewReads == nil {
		t.Fatal("ViewReads must stay non-nil")
	}
	if cr.Clean() != true {
		t.Fatal("no race was found, result should read as clean (but incomplete)")
	}
}
