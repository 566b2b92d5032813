// Sweep-throughput measurement: the numbers behind BENCH_PR5.json. The
// §7 coverage sweep re-executes the program once per specification; most
// of those executions share a long prefix of steal decisions. This
// harness times rader.Sweep (steal-decision trie + copy-on-write detector
// snapshots) against rader.SweepReference, the serial one-run-per-spec
// sweep the equivalence tests compare it with, on a program built to have
// a long shared prefix, and records the sharing counters that explain the
// speedup. The "naive" fields and labels name the reference side.
package tables

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/rader"
)

// SweepBench is the sweep-throughput section of BENCH_PR5.json.
type SweepBench struct {
	// Program identifies the benchmark workload: progs.SweepStress with
	// the recorded shape (spawns / preamble accesses / per-child accesses).
	Program string `json:"program"`
	// Specs is the §7 family size — the acceptance bar demands >= 50.
	Specs int `json:"specs"`
	// Groups is how many distinct event streams the trie found; the
	// prefix sweep runs one unit per group instead of one per spec.
	Groups int `json:"groups"`
	// NaiveMs (rader.SweepReference) and PrefixMs (rader.Sweep) are median
	// wall-clock milliseconds for one whole sweep, both serial (Sweep at
	// Workers: 1), so the ratio measures work, not scheduling.
	NaiveMs  float64 `json:"naiveMs"`
	PrefixMs float64 `json:"prefixMs"`
	// Speedup is NaiveMs / PrefixMs — the PR's acceptance gate demands
	// >= 2.
	Speedup float64 `json:"speedup"`
	// Sharing counters from the measured prefix sweep: every unit seeded
	// from a snapshot is a hit, EventsSkipped is detector work not done,
	// PagesCopied is the copy-on-write bill for all the forks.
	SnapshotHits   int64 `json:"snapshotHits"`
	SnapshotMisses int64 `json:"snapshotMisses"`
	EventsSkipped  int64 `json:"eventsSkipped"`
	PagesCopied    int64 `json:"pagesCopied"`

	// The work-stealing section (BENCH_PR10.json): the same prefix sweep
	// run on a 10^4-specification stress family, once at one worker and
	// once at Workers lanes. Wall clock on a small host conflates the two
	// runs with CPU contention, so the scaling gate is critical-path
	// speedup: total busy time at one worker over the busiest lane at
	// Workers lanes — the wall-clock ratio an unloaded Workers-core host
	// would see. The acceptance bar demands >= 3 at 8 workers.
	StressProgram string `json:"stressProgram"`
	// StressSpecs is the stress family size (>= 10^4 by construction);
	// StressGroups is its trie-group count — the unit count the scheduler
	// actually balances.
	StressSpecs         int     `json:"stressSpecs"`
	StressGroups        int     `json:"stressGroups"`
	Workers             int     `json:"workers"`
	SerialBusyMs        float64 `json:"serialBusyMs"`
	MaxLaneBusyMs       float64 `json:"maxLaneBusyMs"`
	CriticalPathSpeedup float64 `json:"criticalPathSpeedup"`
	// Steals and Handoffs come from the Workers-lane run: units taken
	// from another lane's deque, and how many of those crossed with a
	// copy-on-write snapshot. PagesPooled is the shadow-page free-list
	// residency of the pooled detectors after that run.
	Steals      int64 `json:"steals"`
	Handoffs    int64 `json:"handoffs"`
	PagesPooled int   `json:"pagesPooled"`
}

// Render formats the comparison as benchtab's sweep table.
func (sb *SweepBench) Render() string {
	out := fmt.Sprintf(
		"program:            %s\n"+
			"family:             %d specifications in %d trie groups\n"+
			"naive sweep:        %8.2f ms   (reference: one detector run per specification)\n"+
			"prefix sweep:       %8.2f ms   (one unit per group, snapshot-seeded suffixes)\n"+
			"speedup:            %8.2fx\n"+
			"snapshot seeding:   %d hits, %d misses\n"+
			"detector work skipped: %d events; copy-on-write pages copied: %d\n",
		sb.Program, sb.Specs, sb.Groups, sb.NaiveMs, sb.PrefixMs, sb.Speedup,
		sb.SnapshotHits, sb.SnapshotMisses, sb.EventsSkipped, sb.PagesCopied)
	if sb.Workers > 1 {
		out += fmt.Sprintf(
			"\n--- work-stealing scheduler, %d lanes ---\n"+
				"stress family:      %s: %d specifications in %d trie groups\n"+
				"serial busy:        %8.2f ms   (total unit time at one worker)\n"+
				"busiest lane:       %8.2f ms   (max unit time over %d workers)\n"+
				"critical-path speedup: %5.2fx\n"+
				"steals: %d (snapshot handoffs: %d); shadow pages pooled: %d\n",
			sb.Workers, sb.StressProgram, sb.StressSpecs, sb.StressGroups,
			sb.SerialBusyMs, sb.MaxLaneBusyMs, sb.Workers,
			sb.CriticalPathSpeedup, sb.Steals, sb.Handoffs, sb.PagesPooled)
	}
	return out
}

// measureSweep times f over trials and returns the median duration plus
// the last result (for counter extraction).
func measureSweep(trials int, f func() *rader.CoverageResult) (time.Duration, *rader.CoverageResult) {
	cr := f() // warm pools and the page free lists
	samples := make([]time.Duration, trials)
	for i := range samples {
		start := time.Now()
		cr = f()
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], cr
}

// MeasureSweep times the reference sweep against the prefix-sharing sweep
// on the SweepStress workload, first checking that the two agree on the
// canonical verdict they are being timed to produce.
func MeasureSweep(trials int) (*SweepBench, error) {
	if trials < 1 {
		trials = 3
	}
	const spawns, preamble, body = 7, 2048, 64
	factory := func() func(*cilk.Ctx) {
		return progs.SweepStress(mem.NewAllocator(), spawns, preamble, body)
	}
	naive := func() *rader.CoverageResult { return rader.SweepReference(factory, 0, 0, 0) }
	prefix := func() *rader.CoverageResult { return rader.Sweep(factory, rader.SweepOptions{Workers: 1}) }

	naiveCR := naive()
	prefixCR := prefix()
	if err := sweepsAgree(naiveCR, prefixCR); err != nil {
		return nil, err
	}
	out := &SweepBench{
		Program: fmt.Sprintf("SweepStress(spawns=%d, preamble=%d, body=%d)", spawns, preamble, body),
		Specs:   naiveCR.SpecsRun,
		Groups:  prefixCR.Stats.Groups,
	}
	if out.Specs < 50 {
		return nil, fmt.Errorf("tables: benchmark family has %d specs, want >= 50", out.Specs)
	}

	naiveMed, _ := measureSweep(trials, naive)
	prefixMed, cr := measureSweep(trials, prefix)
	out.NaiveMs = float64(naiveMed.Nanoseconds()) / 1e6
	out.PrefixMs = float64(prefixMed.Nanoseconds()) / 1e6
	if out.PrefixMs <= 0 {
		return nil, fmt.Errorf("tables: degenerate prefix-sweep measurement")
	}
	out.Speedup = out.NaiveMs / out.PrefixMs
	out.SnapshotHits = cr.Stats.SnapshotHits
	out.SnapshotMisses = cr.Stats.SnapshotMisses
	out.EventsSkipped = cr.Stats.EventsSkipped
	out.PagesCopied = cr.Stats.PagesCopied
	if err := measureStealing(out, 40, 8, 10000); err != nil {
		return nil, err
	}
	return out, nil
}

// measureStealing fills the work-stealing section: the prefix sweep on a
// minSpecs-specification family at one worker versus lanes, compared by
// critical path (busiest lane) rather than wall clock so the number
// means the same thing on a loaded one-core CI host as on an idle
// eight-core workstation.
func measureStealing(out *SweepBench, stressSpawns, lanes, minSpecs int) error {
	factory := func() func(*cilk.Ctx) {
		return progs.ReducerBench(mem.NewAllocator(), stressSpawns)
	}
	serial := rader.Sweep(factory, rader.SweepOptions{Workers: 1})
	par := rader.Sweep(factory, rader.SweepOptions{Workers: lanes})
	if err := sweepsAgree(serial, par); err != nil {
		return fmt.Errorf("1-vs-%d-worker %w", lanes, err)
	}
	out.StressProgram = fmt.Sprintf("ReducerBench(spawns=%d)", stressSpawns)
	out.StressSpecs = serial.Stats.SpecsTotal
	out.StressGroups = par.Stats.Groups
	if out.StressSpecs < minSpecs {
		return fmt.Errorf("tables: stress family has %d specs, want >= %d", out.StressSpecs, minSpecs)
	}
	var sumBusy, maxLane int64
	for _, b := range serial.Stats.WorkerBusy {
		sumBusy += b
	}
	for _, b := range par.Stats.WorkerBusy {
		if b > maxLane {
			maxLane = b
		}
	}
	if maxLane <= 0 {
		return fmt.Errorf("tables: degenerate %d-worker busy measurement", lanes)
	}
	out.Workers = lanes
	out.SerialBusyMs = float64(sumBusy) / 1e6
	out.MaxLaneBusyMs = float64(maxLane) / 1e6
	out.CriticalPathSpeedup = float64(sumBusy) / float64(maxLane)
	out.Steals = par.Stats.Steals
	out.Handoffs = par.Stats.Handoffs
	out.PagesPooled = par.Stats.PagesPooled
	return nil
}

// sweepsAgree checks the canonical verdict fields the equivalence
// property test pins, so the benchmark can never time two sweeps that
// disagree about the answer.
func sweepsAgree(a, b *rader.CoverageResult) error {
	if a.SpecsRun != b.SpecsRun {
		return fmt.Errorf("tables: sweeps disagree on SpecsRun: %d vs %d", a.SpecsRun, b.SpecsRun)
	}
	if !reflect.DeepEqual(a.Races, b.Races) {
		return fmt.Errorf("tables: sweeps disagree on races:\n%v\nvs\n%v", a.Races, b.Races)
	}
	if len(a.Failures) != 0 || len(b.Failures) != 0 {
		return fmt.Errorf("tables: benchmark sweep failed: %v / %v", a.Failures, b.Failures)
	}
	if a.TotalReports() != b.TotalReports() {
		return fmt.Errorf("tables: sweeps disagree on total reports: %d vs %d", a.TotalReports(), b.TotalReports())
	}
	if !reflect.DeepEqual(a.ViewReads.Races(), b.ViewReads.Races()) {
		return fmt.Errorf("tables: sweeps disagree on view-read races")
	}
	return nil
}
