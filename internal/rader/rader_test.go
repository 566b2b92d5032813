package rader

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/sched"
)

func TestParseDetector(t *testing.T) {
	for _, name := range DetectorNames {
		if got, err := ParseDetector(string(name)); err != nil || got != name {
			t.Fatalf("ParseDetector(%q) = %q, %v", name, got, err)
		}
	}
	for _, s := range []string{"tsan", "", "offset-span", "english-hebrew"} {
		if _, err := ParseDetector(s); err == nil {
			t.Fatalf("unknown detector %q must error", s)
		}
	}
}

func TestRunAllDetectorsOnApp(t *testing.T) {
	al := mem.NewAllocator()
	ins := apps.Fib().Build(al, apps.Test)
	for _, d := range []DetectorName{None, EmptyTool, PeerSet, SPBags, SPPlus} {
		out := MustRun(ins.Prog, Config{Detector: d, Spec: cilk.StealAll{}})
		if err := ins.Verify(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if (d == None || d == EmptyTool) != (out.Report == nil) {
			t.Fatalf("%s: report presence wrong", d)
		}
		if out.Duration <= 0 || out.Result == nil {
			t.Fatalf("%s: outcome incomplete", d)
		}
	}
}

func TestReplayLabelReproducesRace(t *testing.T) {
	// Find the Figure 1 race under steal-all, then replay it from the
	// reported labels alone.
	al := mem.NewAllocator()
	prog := progs.Fig1(al, progs.Fig1Options{})
	out := MustRun(prog, Config{Detector: SPPlus, Spec: cilk.StealAll{}})
	if out.Report.Empty() {
		t.Fatal("expected the Figure 1 race under steal-all")
	}
	spec, err := sched.Parse(out.Replay())
	if err != nil {
		t.Fatalf("replay label unparsable: %v", err)
	}
	again := MustRun(prog, Config{Detector: SPPlus, Spec: spec})
	if again.Report.Empty() {
		t.Fatal("replayed schedule must reproduce the race")
	}
}

func TestCoverageFindsFig1Race(t *testing.T) {
	// The §7 sweep must find the Figure 1 determinacy race without being
	// told which schedule elicits it.
	cr := Sweep(fig1Factory(progs.Fig1Options{}), SweepOptions{})
	if cr.SpecsRun == 0 {
		t.Fatal("no specifications generated")
	}
	if len(cr.Races) == 0 {
		t.Fatal("coverage sweep missed the Figure 1 race")
	}
	for _, f := range cr.Races {
		if f.Race.Kind != core.Determinacy {
			t.Fatalf("unexpected race kind: %v", f.Race)
		}
		if f.Spec == "" {
			t.Fatal("finding must name its eliciting specification")
		}
	}
	if cr.Clean() {
		t.Fatal("Clean() must be false")
	}
}

func TestCoverageCleanProgram(t *testing.T) {
	cr := Sweep(fig1Factory(progs.Fig1Options{DeepCopy: true}), SweepOptions{})
	if !cr.Clean() {
		t.Fatalf("deep-copy program is clean; sweep found %d races, view-reads: %s",
			len(cr.Races), cr.ViewReads.Summary())
	}
	if cr.Profile.MaxSyncBlock < 1 || cr.SpecsRun < 2 {
		t.Fatalf("profile/sweep malformed: %+v, %d specs", cr.Profile, cr.SpecsRun)
	}
}

func TestCoverageViewRead(t *testing.T) {
	cr := Sweep(fig1Factory(progs.Fig1Options{EarlyGetValue: true}), SweepOptions{})
	if !cr.ViewReads.HasKind(core.ViewRead) {
		t.Fatal("coverage must surface the view-read race via Peer-Set")
	}
}

func TestNoStealReplayIsNone(t *testing.T) {
	al := mem.NewAllocator()
	ins := apps.Ferret().Build(al, apps.Test)
	out := MustRun(ins.Prog, Config{Detector: SPPlus})
	if !strings.HasPrefix(out.Replay(), "labels:") && out.Replay() != "labels:" {
		t.Fatalf("replay = %q", out.Replay())
	}
	if len(out.Result.Steals) != 0 {
		t.Fatal("no-spec run must not steal")
	}
}

func TestCoverageParallelMatchesSerial(t *testing.T) {
	factory := fig1Factory(progs.Fig1Options{})
	serial := Sweep(factory, SweepOptions{Workers: 1})
	par := Sweep(factory, SweepOptions{Workers: 4})
	if par.SpecsRun != serial.SpecsRun {
		t.Fatalf("specs run differ: %d vs %d", par.SpecsRun, serial.SpecsRun)
	}
	if len(par.Races) != len(serial.Races) {
		t.Fatalf("findings differ: %d vs %d", len(par.Races), len(serial.Races))
	}
	for i := range par.Races {
		if par.Races[i].Race.String() != serial.Races[i].Race.String() {
			t.Fatalf("finding %d differs", i)
		}
	}
	if Sweep(factory, SweepOptions{Workers: 0}).SpecsRun != serial.SpecsRun {
		t.Fatal("workers=0 must clamp to 1")
	}
}

// fig1Factory builds a fresh Figure 1 instance per sweep run.
func fig1Factory(opts progs.Fig1Options) func() func(*cilk.Ctx) {
	return func() func(*cilk.Ctx) { return progs.Fig1(mem.NewAllocator(), opts) }
}
