// Package rader is the tool layer tying programs, schedules and detectors
// together — the Go analogue of the paper's Rader prototype (§8). It runs
// a Cilk program under a chosen detector and steal specification, returns
// the race report together with the stolen-continuation labels needed to
// replay the schedule, and drives the §7 coverage sweep that checks every
// execution of an ostensibly deterministic program by running SP+ once per
// generated specification.
//
// The layer is hardened: Run recovers panics out of the program or the
// analysis into typed *streamerr.Error values, enforces an optional
// per-run event budget and timeout, and the sweep isolates each
// specification so one poisoned run degrades into a CoverageResult.Failures
// entry instead of killing the whole multi-hundred-execution sweep.
package rader

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/obs"
	"repro/internal/peerset"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

// DetectorName selects the analysis run alongside the program.
type DetectorName string

// The available analyses. None and EmptyTool are the two baselines of the
// evaluation: no instrumentation at all, and instrumentation calling no-op
// hooks.
const (
	None      DetectorName = "none"
	EmptyTool DetectorName = "empty"
	PeerSet   DetectorName = "peer-set"
	SPBags    DetectorName = "sp-bags"
	SPPlus    DetectorName = "sp+"
	// Depa is the order-maintenance detector: DePa-style (depth,
	// fork-path) strand timestamps with a sharded parallel detection
	// phase. Verdicts are byte-identical to SP-bags; it additionally
	// reports parallel-machinery statistics.
	Depa DetectorName = "depa"
	// All runs the paper's three detectors — Peer-Set, SP-bags and SP+ —
	// over a single execution (or a single trace decode) in one pass,
	// producing a merged Outcome with one report per detector.
	All DetectorName = "all"
)

// AllDetectors is the canonical detector order of an All run; every
// merged outcome, report document and cache layout lists detectors in
// this order.
var AllDetectors = []DetectorName{PeerSet, SPBags, SPPlus}

// DetectorNames lists every name ParseDetector accepts, in the order
// usage text and errors print them.
var DetectorNames = []DetectorName{None, EmptyTool, PeerSet, SPBags, SPPlus, Depa, All}

// ParseDetector validates a detector name.
func ParseDetector(s string) (DetectorName, error) {
	if !slices.Contains(DetectorNames, DetectorName(s)) {
		return "", fmt.Errorf("rader: unknown detector %q (have %v)", s, DetectorNames)
	}
	return DetectorName(s), nil
}

// Config selects the analysis, schedule and resource limits for one run.
type Config struct {
	Detector DetectorName
	Spec     cilk.StealSpec
	// EventBudget aborts the run with a KindBudget error once the event
	// stream exceeds this many events (0 = unlimited).
	EventBudget int64
	// Timeout aborts the run with a KindDeadline error once it has run
	// this long, timed from the start of Run (0 = no limit).
	//
	// cilk.Run counts the events and reads the clock every 1024 of them,
	// with or without a detector attached: a None run under either limit
	// is counted, and can abort, like any other.
	Timeout time.Duration
	// Trace, when set, collects a span per run phase (nil disables span
	// collection at zero cost — the obs nil fast path).
	Trace *obs.Trace
}

// Outcome reports one analysed run.
type Outcome struct {
	Detector DetectorName
	// Detectors are the detector instances that watched the run, in
	// document order: none for None and EmptyTool, AllDetectors' three
	// for All, one otherwise.
	Detectors []core.Detector
	// Report, Stats, Counts and Parallel mirror the first detector: its
	// verdict, its disjoint-set and per-event-class accounting, and
	// depa's parallel-machinery statistics. Report is nil when no
	// detector watched; Parallel is nil unless the first detector is depa.
	Report   *core.Report
	Result   *cilk.Result
	Duration time.Duration
	Stats    core.Stats
	Counts   obs.EventCounts
	Parallel *depa.ParallelStats

	order cilk.ReduceOrder // the run's reduce order, for Replay
}

// Replay formats the textual steal specification that reproduces this
// run's schedule, reported alongside races for regression testing (§8).
// It is formatted from Result.Steals on each call.
func (o *Outcome) Replay() string {
	return sched.Format(sched.FromSteals(o.Result.Steals, o.order))
}

// NewDetector constructs a fresh instance of the named detector. The two
// baselines have no analysis: None yields (nil, nil, nil) and EmptyTool
// yields no-op hooks with a nil detector. Every other name yields a
// detector that doubles as the hook chain to attach.
func NewDetector(name DetectorName) (core.Detector, cilk.Hooks, error) {
	switch name {
	case None, "":
		return nil, nil, nil
	case EmptyTool:
		return nil, cilk.Empty{}, nil
	case PeerSet:
		d := peerset.New()
		return d, d, nil
	case SPBags:
		d := spplus.NewSPBags()
		return d, d, nil
	case SPPlus:
		d := spplus.New()
		return d, d, nil
	case Depa:
		d := depa.New()
		return d, d, nil
	default:
		return nil, nil, fmt.Errorf("rader: bad detector %q", name)
	}
}

// NewAllDetectors constructs fresh instances of the paper's three
// detectors in AllDetectors order, for callers that drive a trace replay
// themselves (each detector doubles as its cilk.Hooks chain).
func NewAllDetectors() []core.Detector {
	dets, _ := NewDetectors(All, nil) // All names only real detectors
	return dets
}

// NewDetectors constructs fresh detectors for name, in document order:
// the paper's three for All, none for the None and EmptyTool baselines,
// one otherwise. A depa detector emits its per-shard finalize spans into
// tr. Run and the trace pipeline (internal/analyze) both build their
// detectors here.
func NewDetectors(name DetectorName, tr *obs.Trace) ([]core.Detector, error) {
	names := []DetectorName{name}
	if name == All {
		names = AllDetectors
	}
	var dets []core.Detector
	for _, n := range names {
		d, _, err := NewDetector(n)
		if err != nil {
			return nil, err
		}
		if d == nil {
			continue
		}
		if dd, ok := d.(*depa.Detector); ok {
			dd.Trace = tr
		}
		dets = append(dets, d)
	}
	return dets, nil
}

// Run executes prog once under cfg with cfg.Detector's detectors
// attached: a single detector is the hook chain itself, All's three share
// the one execution through cilk.MultiHooks (the live counterpart of
// trace.ReplayAll), EmptyTool attaches no-op hooks and None attaches
// nothing, the uninstrumented baseline. cilk.Run enforces the budget and
// the timeout before any detector sees an event, so an abort lands on the
// same event whichever detectors watch. A panic out of the program, a
// detector, or the limits is recovered and returned as a
// *streamerr.Error; the process never dies on a misbehaving run.
func Run(prog func(*cilk.Ctx), cfg Config) (*Outcome, error) {
	dets, err := NewDetectors(cfg.Detector, cfg.Trace)
	if err != nil {
		return nil, err
	}
	return run(prog, dets, cfg)
}

// run is Run over detectors the caller built.
func run(prog func(*cilk.Ctx), dets []core.Detector, cfg Config) (out *Outcome, err error) {
	var hooks cilk.Hooks
	switch {
	case cfg.Detector == EmptyTool:
		hooks = cilk.Empty{}
	case len(dets) == 1:
		hooks = dets[0]
	case len(dets) > 1:
		chains := make([]cilk.Hooks, len(dets))
		for i, d := range dets {
			chains[i] = d
		}
		hooks = cilk.MultiHooks(chains...)
	}
	defer func() {
		if p := recover(); p != nil {
			out = nil
			err = streamerr.FromPanic("rader", p)
		}
	}()
	span := cfg.Trace.Start("run:" + string(cfg.Detector))
	start := time.Now()
	var deadline time.Time
	if cfg.Timeout > 0 {
		deadline = start.Add(cfg.Timeout)
	}
	res := cilk.Run(prog, cilk.Config{Spec: cfg.Spec, Hooks: hooks, EventBudget: cfg.EventBudget, Deadline: deadline})
	out = &Outcome{
		Detector:  cfg.Detector,
		Detectors: dets,
		Result:    res,
		Duration:  time.Since(start),
		order:     orderOf(cfg.Spec),
	}
	span.Arg("frames", res.Frames).Arg("spawns", res.Spawns).
		Arg("loads", res.Loads).Arg("stores", res.Stores)
	if len(dets) > 0 {
		det := dets[0]
		out.Report = det.Report()
		if sp, ok := det.(core.StatsProvider); ok {
			out.Stats = sp.Stats()
		}
		if ec, ok := det.(core.EventCountsProvider); ok {
			out.Counts = ec.EventCounts()
		}
		if pp, ok := det.(depa.ParallelStatsProvider); ok {
			ps := pp.ParallelStats()
			out.Parallel = &ps
		}
	}
	span.End()
	return out, nil
}

// MustRun is Run for callers that know the run cannot fail (a live
// program under no budget or injection): it panics on error.
func MustRun(prog func(*cilk.Ctx), cfg Config) *Outcome {
	out, err := Run(prog, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

func orderOf(spec cilk.StealSpec) cilk.ReduceOrder {
	if spec == nil {
		return cilk.ReduceAtSync
	}
	return spec.Order()
}

// CoverageFinding records which specification elicited a race.
type CoverageFinding struct {
	Spec string
	Race core.Race
}

// SpecFailure records one sweep unit that failed instead of producing a
// verdict: the specification (or pseudo-stage "profile" / "peer-set") and
// the typed error explaining why.
type SpecFailure struct {
	Spec string
	Err  error
}

// String implements fmt.Stringer.
func (sf SpecFailure) String() string { return fmt.Sprintf("[%s] %v", sf.Spec, sf.Err) }

// CoverageResult summarizes a §7 sweep.
type CoverageResult struct {
	Profile   specgen.Profile
	SpecsRun  int
	ViewReads *core.Report // Peer-Set result (schedule-independent)
	// Races holds one representative finding per distinct determinacy
	// race, with the specification that elicited it.
	Races []CoverageFinding
	// Failures lists sweep units that produced an error instead of a
	// verdict: a poisoned specification, a budget or deadline abort, a
	// panicking program. The remaining specifications' results are still
	// reported — a sweep degrades, it does not die.
	Failures []SpecFailure
	// Stats accounts for how the sweep executed (prefix sharing, snapshot
	// and copy-on-write counters, scheduling). It is diagnostic, not part
	// of the canonical verdict: two equivalent sweeps may differ here.
	Stats SweepStats
	total int
}

// Clean reports whether the sweep found no race. A sweep with Failures
// can still be Clean; use Complete to check that every unit ran.
func (cr *CoverageResult) Clean() bool {
	return cr.ViewReads.Empty() && len(cr.Races) == 0
}

// Complete reports whether every sweep unit produced a verdict.
func (cr *CoverageResult) Complete() bool { return len(cr.Failures) == 0 }

// TotalReports counts raw race reports across the sweep.
func (cr *CoverageResult) TotalReports() int { return cr.total }

// SweepOptions configures a hardened §7 sweep.
type SweepOptions struct {
	// Workers is the number of work-stealing lanes running sweep units
	// (<1 means 1).
	Workers int
	// EventBudget bounds each run's event stream (0 = unlimited).
	EventBudget int64
	// Timeout bounds the whole sweep. Specifications not finished (or not
	// started) by the deadline are reported in Failures as
	// deadline-exceeded; completed specifications keep their results.
	Timeout time.Duration
	// Wrap, when set, is the fault-injection seam. The sweep calls it once
	// per trie unit, with the family index and specification of the first
	// member of the unit's leaf group, and wraps the unit's SP+ detector
	// directly. The executor withholds a seeded unit's shared prefix from
	// the wrapped hooks, so they see only the events after its divergence
	// probe; a fault that fails the unit fails every specification of its
	// group, and the snapshots the unit hands its sibling subtrees carry
	// whatever the wrapped stream did to the detector. The root unit's
	// piggybacked Peer-Set pass is never wrapped.
	Wrap func(index int, spec cilk.StealSpec, hooks cilk.Hooks) cilk.Hooks
	// SampleSpecs, when positive and below the family size, caps how many
	// specifications the sweep runs: the budget-aware sampler
	// (specgen.SampleFamily) picks that many coverage-guided — stratified
	// by first-steal divergence point, always keeping the all-serial base
	// schedule — and the sweep reports Sampled, CoverageFraction and a
	// Confidence note in its Stats. The sampler's seed is fixed at 0 —
	// never wall-clock randomness, which would break result caching — so
	// a sampled sweep matches SweepReference over the same sample at any
	// worker count.
	SampleSpecs int
	// Trace, when set, collects per-phase spans: "profile", one
	// "spec:<name>" per sweep unit (on the worker's lane), and "collect"
	// for the merge. Nil disables collection at zero cost.
	Trace *obs.Trace
	// OnProgress, when set, receives monotone progress snapshots: once
	// when the unit count is known, then after every resolved sweep unit.
	// Every field only grows. Races counts distinct races per resolved
	// unit before cross-unit dedup, so it can exceed the final
	// CoverageResult's count — it is a live signal, not the verdict.
	// Callbacks are serialized under the sweep's progress lock and must
	// not block — hand the snapshot to a channel or an obs.Progress and
	// return.
	OnProgress func(obs.ProgressSnapshot)
}

// progressSink serializes OnProgress deliveries: accumulate under one
// mutex, emit the merged snapshot while still holding it so observers see
// a strictly monotone sequence. A nil sink is inert.
type progressSink struct {
	mu  sync.Mutex
	cur obs.ProgressSnapshot
	fn  func(obs.ProgressSnapshot)
}

func newProgressSink(fn func(obs.ProgressSnapshot)) *progressSink {
	if fn == nil {
		return nil
	}
	return &progressSink{fn: fn}
}

// start publishes the initial 0/total snapshot once the unit count is
// known.
func (p *progressSink) start(total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur.UnitsTotal = int64(total)
	p.fn(p.cur)
	p.mu.Unlock()
}

// unitDone folds one resolved unit (or several, for a deadline skip that
// settles a whole subtree) into the running totals and publishes.
func (p *progressSink) unitDone(units, races int, skipped, pages int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur.UnitsDone += int64(units)
	p.cur.Races += int64(races)
	p.cur.EventsSkipped += skipped
	p.cur.PagesCopied += pages
	p.fn(p.cur)
	p.mu.Unlock()
}

// sortCanonical puts findings and failures into spec order (ties broken by
// the race or error text) so a sweep's result — and any JSON rendering of
// it — is byte-identical regardless of worker count or completion order.
func (cr *CoverageResult) sortCanonical() {
	sort.SliceStable(cr.Races, func(i, j int) bool {
		if cr.Races[i].Spec != cr.Races[j].Spec {
			return cr.Races[i].Spec < cr.Races[j].Spec
		}
		return cr.Races[i].Race.String() < cr.Races[j].Race.String()
	})
	sort.SliceStable(cr.Failures, func(i, j int) bool {
		if cr.Failures[i].Spec != cr.Failures[j].Spec {
			return cr.Failures[i].Spec < cr.Failures[j].Spec
		}
		return fmt.Sprint(cr.Failures[i].Err) < fmt.Sprint(cr.Failures[j].Err)
	})
}
