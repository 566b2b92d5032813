package rader

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

// The prefix-sharing sweep makes each unit's cost proportional to its
// specification's divergent suffix instead of the whole execution. The
// family's specs are grouped by longest common prefix of steal decisions
// into a trie (specgen.BuildTrieIndexed, expanded lazily as units walk
// it); each trie leaf is one group of stream-identical specs and is
// analysed exactly once. A sweep unit walks the leftmost path of its
// subtree: it restores the SP+ detector from the snapshot captured at the
// subtree's divergence probe and re-executes the program under a
// cilk.Gate that withholds the shared prefix from the detector and opens
// at that probe. At each branch node on its path it captures a fresh
// copy-on-write snapshot and pushes one unit per sibling subtree onto its
// own deque — the work-stealing scheduler in parsweep.go distributes
// those units across workers, handing the snapshot off with each stolen
// unit. cilk.Run counts withheld events against the budget like delivered
// ones, so budget and deadline aborts land on the same event, with the
// same error text, as a run of the same specification in SweepReference.

// sweepClock anchors every deadline decision of one sweep to a single
// monotonic time reading, so per-unit expiry checks and the in-run
// deadline agree with each other and are immune to wall-clock steps.
type sweepClock struct {
	start   time.Time
	timeout time.Duration
}

func newSweepClock(timeout time.Duration) sweepClock {
	return sweepClock{start: time.Now(), timeout: timeout}
}

// expired reports whether the sweep's budgeted wall time has elapsed.
func (c sweepClock) expired() bool {
	return c.timeout > 0 && time.Since(c.start) >= c.timeout
}

// deadline returns the in-run absolute deadline (zero = none). The time
// carries the start's monotonic reading, so the executor's comparisons
// stay monotonic too.
func (c sweepClock) deadline() time.Time {
	if c.timeout <= 0 {
		return time.Time{}
	}
	return c.start.Add(c.timeout)
}

// SweepStats accounts for how a sweep was executed. It is diagnostic
// output: two sweeps over the same program are equivalent iff their
// canonical CoverageResult fields match, regardless of Stats. The
// scheduling fields (Workers, Steals, Handoffs, PagesPooled, WorkerBusy)
// are nondeterministic across runs and never enter the report document;
// the sampling fields (SpecsTotal, Sampled, CoverageFraction, Confidence)
// are deterministic and do.
type SweepStats struct {
	// SnapshotHits counts sweep units seeded from a detector snapshot;
	// SnapshotMisses counts units that ran fully live (the root unit, and
	// any fallback unit respawned after a failure upstream of its subtree).
	SnapshotHits   int64
	SnapshotMisses int64
	// EventsSkipped is the total number of instrumentation events the
	// prefix gates withheld — work a per-specification sweep would have
	// fed to a live detector.
	EventsSkipped int64
	// PagesCopied counts shadow-memory pages cloned by copy-on-write
	// across all units — the cost side of forking detectors.
	PagesCopied int64
	// Groups is the number of distinct event streams the family collapsed
	// to (specs with identical steal decisions and reduce mode share one).
	Groups int

	// Workers is the scheduler width the sweep ran at.
	Workers int
	// Steals counts units taken from another worker's deque; Handoffs
	// counts the stolen units that carried a snapshot across workers (the
	// rest ran live — root and failure-respawn units).
	Steals   int64
	Handoffs int64
	// PagesPooled is the shadow-page free-list residency summed over the
	// workers' pooled detectors at sweep end (each list capped, so a
	// 10^4-spec sweep cannot hoard pages unboundedly).
	PagesPooled int
	// WorkerBusy is each worker's total unit time in nanoseconds — thread
	// CPU time on Linux, per-unit wall time elsewhere. Max over workers is
	// the sweep's critical path — the scaling measure on hosts with fewer
	// cores than workers, where wall-time billing would charge every lane
	// for time spent preempted.
	WorkerBusy []int64

	// SpecsTotal is the full family size; when the sweep was sampled,
	// Sampled is set, CoverageFraction is the fraction of the family that
	// ran, and Confidence carries the human-readable caveat. All four are
	// deterministic for a given (program, options) and are part of the
	// report document.
	SpecsTotal       int
	Sampled          bool
	CoverageFraction float64
	Confidence       string
}

// unitTask is one schedulable sweep unit: analyse the leftmost leaf group
// of node, seeded from snap at divergence probe seedSeq. A nil snap means
// the unit runs fully live from the first event (the root unit, and
// fallback units respawned after an upstream failure).
type unitTask struct {
	node    *specgen.TrieNode
	snap    *snapRef
	seedSeq int
	root    bool
}

// groupResult is the verdict for one trie leaf, replicated at collect time
// to every specification in the group.
type groupResult struct {
	races     []core.Race
	total     int
	err       error
	viewReads *core.Report // piggybacked Peer-Set verdict, root unit only
}

// prefixSweep is the shared state of one prefix-sharing sweep run.
type prefixSweep struct {
	factory func() func(*cilk.Ctx)
	opts    SweepOptions
	clock   sweepClock

	fam  *specgen.Family
	sel  []int // family indices the sweep runs (all, or the sample)
	trie *specgen.Trie

	results []groupResult // one slot per trie group, each written once
	psErr   error         // root-unit failure, doubling as the peer-set loss

	sched    *wsSched
	progress *progressSink

	hits, misses, skipped, pages atomic.Int64
}

// specAt returns the specification at position pos of the selection.
func (s *prefixSweep) specAt(pos int) cilk.StealSpec { return s.fam.At(s.sel[pos]) }

// Sweep is the hardened §7 coverage sweep: prefix sharing on the
// work-stealing scheduler, with per-unit panic isolation, an event budget
// and an overall deadline. Each failing unit is reported in
// CoverageResult.Failures with its typed error while every other
// specification still contributes its verdict. With Workers > 1, lanes
// run program instances concurrently, so factory must return a fresh,
// independent instance per call; instances must allocate identical
// address layouts (e.g. a fresh mem.Allocator each), so findings from
// different units describe the same locations.
//
// Equivalence contract: the returned CoverageResult's canonical fields
// (Profile, SpecsRun, ViewReads, Races, Failures, TotalReports) are
// byte-identical to SweepReference's, at any worker count and under the
// same budget and sampling options.
func Sweep(factory func() func(*cilk.Ctx), opts SweepOptions) *CoverageResult {
	workers := max(opts.Workers, 1)
	// All deadline arithmetic derives from this one monotonic reading, so a
	// wall-clock step mid-sweep cannot expire (or revive) the timeout.
	clock := newSweepClock(opts.Timeout)
	cr := &CoverageResult{ViewReads: &core.Report{}, Stats: SweepStats{Workers: workers}}

	pspan := opts.Trace.Start("profile")
	profile, probes, err := measureProbes(factory)
	pspan.End()
	if err != nil {
		cr.Failures = append(cr.Failures, SpecFailure{Spec: "profile", Err: err})
		return cr
	}
	cr.Profile = profile

	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, opts.SampleSpecs, 0)
	applySampleStats(&cr.Stats, fam.Len(), len(sel))
	s := &prefixSweep{
		factory: factory, opts: opts, clock: clock,
		fam: fam, sel: sel,
		trie:     specgen.BuildTrieIndexed(len(sel), func(pos int) cilk.StealSpec { return fam.At(sel[pos]) }, probes),
		progress: newProgressSink(opts.OnProgress),
	}
	s.results = make([]groupResult, len(s.trie.Groups))
	cr.Stats.Groups = len(s.trie.Groups)
	s.progress.start(len(s.trie.Groups))

	ws := newWSSched(s, workers)
	s.sched = ws
	ws.push(ws.workers[0], unitTask{node: s.trie.Root, root: true})
	ws.runAll()

	cr.Stats.SnapshotHits = s.hits.Load()
	cr.Stats.SnapshotMisses = s.misses.Load()
	cr.Stats.EventsSkipped = s.skipped.Load()
	cr.Stats.PagesCopied = s.pages.Load()
	cr.Stats.Steals = ws.steals.Load()
	cr.Stats.Handoffs = ws.handoffs.Load()
	for _, w := range ws.workers {
		cr.Stats.WorkerBusy = append(cr.Stats.WorkerBusy, w.busy.Nanoseconds())
		cr.Stats.PagesPooled += w.pooled
	}

	// Replicate each group's verdict to every member specification in
	// selection order, so race attribution (the first spec to report a
	// distinct race wins) matches a per-specification sweep.
	cspan := opts.Trace.Start("collect")
	groupOf := make([]int, len(sel))
	for g, members := range s.trie.Groups {
		for _, pos := range members {
			groupOf[pos] = g
		}
	}
	seen := make(map[string]bool)
	for pos := range sel {
		res := s.results[groupOf[pos]]
		if res.err != nil {
			name := sched.Format(s.specAt(pos))
			if pos == 0 && s.psErr != nil {
				// The root unit carried the Peer-Set pass too; its loss must
				// be visible under both names.
				cr.Failures = append(cr.Failures, SpecFailure{Spec: "peer-set", Err: s.psErr})
			}
			cr.Failures = append(cr.Failures, SpecFailure{Spec: name, Err: res.err})
			continue
		}
		if res.viewReads != nil {
			cr.ViewReads = res.viewReads
		}
		cr.SpecsRun++
		cr.total += res.total
		for _, race := range res.races {
			key := race.String()
			if !seen[key] {
				seen[key] = true
				cr.Races = append(cr.Races, CoverageFinding{Spec: sched.Format(s.specAt(pos)), Race: race})
			}
		}
	}
	cr.sortCanonical()
	cspan.Arg("specs", cr.SpecsRun).Arg("races", len(cr.Races)).
		Arg("failures", len(cr.Failures)).End()
	return cr
}

// applySampleStats fills the deterministic sampling fields of a sweep's
// stats.
func applySampleStats(st *SweepStats, total, selected int) {
	st.SpecsTotal = total
	st.CoverageFraction = 1
	if total > 0 {
		st.CoverageFraction = float64(selected) / float64(total)
	}
	if selected < total {
		st.Sampled = true
		st.Confidence = confidenceNote(selected, total)
	}
}

// confidenceNote renders the deterministic caveat attached to a sampled
// sweep's stats (and report document): a sampled sweep proves races it
// finds, but its clean verdict covers only the schedules it ran.
func confidenceNote(selected, total int) string {
	return fmt.Sprintf("sampled %d of %d specifications (%.1f%% of the family, "+
		"stratified by first-steal subtree); a clean verdict covers only the sampled schedules",
		selected, total, 100*float64(selected)/float64(total))
}

func deadlineSkip() error {
	return streamerr.Errorf("rader", streamerr.KindDeadline,
		"sweep deadline exceeded before specification ran")
}

// runUnit analyses the leftmost leaf group of t.node on worker w, and
// pushes one unit per sibling subtree at each branch node on the way down.
func (s *prefixSweep) runUnit(t unitTask, w *sweepWorker) {
	if s.clock.expired() {
		t.snap.release(w)
		err := deadlineSkip()
		groups := t.node.Leaves(nil)
		for _, g := range groups {
			s.results[g] = groupResult{err: err}
		}
		if t.root {
			s.psErr = err
		}
		// A deadline skip settles every leaf group under the node at once.
		s.progress.unitDone(len(groups), 0, 0, 0)
		return
	}

	var branches []*specgen.TrieNode
	n := t.node
	for {
		s.trie.Expand(n)
		if n.IsLeaf() {
			break
		}
		branches = append(branches, n)
		n = n.Children[0]
	}
	leaf := n.Group
	leafSpec := s.specAt(s.trie.Groups[leaf][0])
	name := sched.Format(leafSpec)
	span := s.opts.Trace.StartTID(w.id+1, "spec:"+name)

	det := w.detPool.Get().(*spplus.Detector)
	det.Reset()
	pagesBefore := int64(det.PagesCopied())
	if t.snap != nil {
		det.Restore(t.snap.snap)
		t.snap.release(w)
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	// A fault-injection wrap sees only the events the gate delivers, so it
	// addresses the events this unit actually analyses.
	var hooks cilk.Hooks = det
	if s.opts.Wrap != nil {
		hooks = s.opts.Wrap(s.sel[s.trie.Groups[leaf][0]], leafSpec, det)
	}
	var ps core.Detector
	if t.root {
		// The root unit's leftmost leaf is the all-serial group (the
		// no-steal edge sorts first at every branch), so — exactly like
		// SweepReference's first run — the schedule-independent Peer-Set
		// pass piggybacks on its execution.
		psDet, psHooks, _ := NewDetector(PeerSet)
		ps = psDet
		hooks = cilk.MultiHooks(psHooks, hooks)
	}
	// A seeded unit's detector resumes at its divergence probe; the gate
	// withholds the prefix before it. An unseeded unit has seedSeq 0 and
	// withholds nothing.
	gate := &cilk.Gate{From: t.seedSeq}

	// nextBranch is shared with the recovery path: sibling subtrees of
	// branch nodes the failing unit never reached must still be analysed,
	// so they are respawned as fully live units.
	nextBranch := 0
	unitRaces := 0
	defer func() {
		skipped := gate.Withheld
		pages := int64(det.PagesCopied()) - pagesBefore
		s.skipped.Add(skipped)
		s.pages.Add(pages)
		if p := recover(); p != nil {
			err := streamerr.FromPanic("rader", p)
			s.results[leaf] = groupResult{err: err}
			unitRaces = 0
			if t.root {
				s.psErr = err
			}
			for _, b := range branches[nextBranch:] {
				for _, child := range b.Children[1:] {
					s.sched.push(w, unitTask{node: child})
				}
			}
			span.Arg("error", err.Error()).End()
		}
		// Resolved one leaf group, by verdict or by failure.
		s.progress.unitDone(1, unitRaces, skipped, pages)
		det.Reset()
		w.pooled = det.PagesPooled()
		w.detPool.Put(det)
	}()

	gate.OnProbe = func(ci cilk.ContInfo) {
		if ci.Seq < 1 || ci.Seq > len(s.trie.Probes) || !s.trie.Probes[ci.Seq-1].Matches(ci) {
			panic(streamerr.Errorf("rader", streamerr.KindState,
				"continuation probe %d diverged from the recorded sequence; program is not ostensibly deterministic", ci.Seq))
		}
		for nextBranch < len(branches) && ci.Seq == branches[nextBranch].Seq {
			b := branches[nextBranch]
			nextBranch++
			ref := newSnapRef(det.SnapshotInto(w.takeSnap()), len(b.Children)-1)
			for _, child := range b.Children[1:] {
				s.sched.push(w, unitTask{node: child, snap: ref, seedSeq: b.Seq})
			}
		}
	}

	cilk.Run(s.factory(), cilk.Config{
		Spec: leafSpec, Hooks: hooks, Gate: gate,
		EventBudget: s.opts.EventBudget, Deadline: s.clock.deadline(),
	})

	res := groupResult{
		races: append([]core.Race(nil), det.Report().Races()...),
		total: det.Report().Total(),
	}
	if ps != nil {
		res.viewReads = ps.Report()
	}
	s.results[leaf] = res
	unitRaces = det.Report().Distinct()
	span.Arg("races", unitRaces).
		Arg("skipped", gate.Withheld).
		Arg("seed", t.seedSeq).End()
}

// measureProbes profiles one program instance and records its continuation
// probes, containing any panic the program (or profiler) raises.
func measureProbes(factory func() func(*cilk.Ctx)) (p specgen.Profile, probes []specgen.ProbeRecord, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = streamerr.FromPanic("rader", r)
		}
	}()
	p, probes = specgen.MeasureProbes(factory())
	return p, probes, nil
}
