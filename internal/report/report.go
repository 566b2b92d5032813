// Package report defines the machine-readable form of a race-analysis
// verdict — the one JSON schema shared by the rader CLI's -json output and
// the raderd service's responses. Keeping the encoding in one place means
// a verdict computed locally and one computed remotely for the same trace
// are byte-for-byte identical, which is what the end-to-end tests (and any
// CI pipeline diffing verdicts) rely on.
//
// The schema is versioned: Schema names the current version and every
// document carries it. Changing any field name, type, ordering, or
// omission rule is a schema change — bump Schema and regenerate the golden
// files in testdata/, which exist precisely to make accidental drift a
// test failure.
//
// Encoding is deterministic by construction: the types contain only
// structs and slices (no maps), so encoding/json renders equal values to
// equal bytes.
package report

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/rader"
)

// Schema is the current schema version, carried by every document.
// Version 2 added the per-race provenance section; version 3 added the
// sweep document's execution-stats section; version 4 added the parallel
// detector's stats section (workers, shard merges, fast-path hit rate);
// version 5 added the sweep document's sampling section (family size,
// coverage fraction, confidence note).
const Schema = 5

// Access is one side of a race.
type Access struct {
	Frame     int64  `json:"frame"`
	Label     string `json:"label"`
	Path      string `json:"path,omitempty"`
	Op        string `json:"op"`
	ViewAware bool   `json:"viewAware,omitempty"`
	ViewOp    string `json:"viewOp,omitempty"`
	VID       int64  `json:"vid,omitempty"`
}

// Provenance explains why the detector reported the race: the SP relation
// (or label rule) that fired and the detector-relative event ordinals of
// the two sides (see core.Provenance for the ordinal contract).
type Provenance struct {
	FirstEvent  int64  `json:"firstEvent,omitempty"`
	SecondEvent int64  `json:"secondEvent,omitempty"`
	Relation    string `json:"relation"`
}

// Race is one detected race.
type Race struct {
	Kind       string      `json:"kind"`
	Addr       uint64      `json:"addr,omitempty"`
	Reducer    string      `json:"reducer,omitempty"`
	First      Access      `json:"first"`
	Second     Access      `json:"second"`
	Provenance *Provenance `json:"provenance,omitempty"`
}

// String renders the access exactly as core.Access.String does.
func (a Access) String() string {
	s := fmt.Sprintf("%s by %s#%d", a.Op, a.Label, a.Frame)
	if a.Path != "" {
		s += " [" + a.Path + "]"
	}
	if a.ViewAware {
		s += fmt.Sprintf(" (view-aware %s, view %d)", a.ViewOp, a.VID)
	}
	return s
}

// String renders the race exactly as core.Race.String does, so a verdict
// printed from the document reads the same wherever the document was
// built.
func (r Race) String() string {
	if r.Kind == core.ViewRead.String() {
		return fmt.Sprintf("%s on reducer %q: %v vs %v", r.Kind, r.Reducer, r.First, r.Second)
	}
	return fmt.Sprintf("%s at %#x: %v vs %v", r.Kind, r.Addr, r.First, r.Second)
}

// Parallel is the parallel detector's execution accounting: how many
// workers (or shards) the detection ran on, how many shard merges the
// run performed, and how often the strand-local coalescing fast path
// absorbed an access without logging a fresh entry. Present only when
// the analysing detector is depa; verdict fields are unaffected by it —
// two runs of the same trace at different shard counts differ only here.
type Parallel struct {
	Workers      int     `json:"workers"`
	ShardMerges  int64   `json:"shardMerges"`
	FastPathHits int64   `json:"fastPathHits"`
	Accesses     int64   `json:"accesses"`
	FastPathRate float64 `json:"fastPathRate"`
}

// ParallelFrom mirrors the detector's stats into the document section.
func ParallelFrom(ps depa.ParallelStats) *Parallel {
	return &Parallel{
		Workers:      ps.Workers,
		ShardMerges:  ps.ShardMerges,
		FastPathHits: ps.FastPathHits,
		Accesses:     ps.Accesses,
		FastPathRate: ps.FastPathRate(),
	}
}

// Report is the verdict document for one analysed run or replay.
type Report struct {
	Schema   int    `json:"schema"`
	Detector string `json:"detector"`
	// Spec is the steal specification of a live run; empty for a trace
	// replay, where the schedule is baked into the stream.
	Spec string `json:"spec,omitempty"`
	// Events is the number of events replayed; zero for live runs.
	Events   int64  `json:"events,omitempty"`
	Races    []Race `json:"races"`
	Distinct int    `json:"distinct"`
	Total    int    `json:"total"`
	Clean    bool   `json:"clean"`
	// Parallel carries the depa detector's parallel-machinery stats;
	// absent for every serial detector.
	Parallel *Parallel `json:"parallel,omitempty"`
}

// Marshal renders the document. Encoding equal values always yields equal
// bytes, so verdicts are diffable across machines.
func (r *Report) Marshal() ([]byte, error) { return json.Marshal(r) }

func fromAccess(a core.Access) Access {
	out := Access{
		Frame: int64(a.Frame), Label: a.Label, Path: a.Path,
		Op: a.Op.String(), ViewAware: a.ViewAware,
	}
	if a.ViewAware {
		out.ViewOp = a.ViewOp.String()
		out.VID = int64(a.VID)
	}
	return out
}

func fromRace(r core.Race) Race {
	out := Race{
		Kind:    r.Kind.String(),
		Reducer: r.Reducer,
		First:   fromAccess(r.First),
		Second:  fromAccess(r.Second),
	}
	if r.Kind == core.Determinacy {
		out.Addr = uint64(r.Addr)
	}
	if r.Prov != (core.Provenance{}) {
		out.Provenance = &Provenance{
			FirstEvent:  r.Prov.FirstEvent,
			SecondEvent: r.Prov.SecondEvent,
			Relation:    r.Prov.Relation,
		}
	}
	return out
}

// FromCore builds a Report from a raw detector report. detector and spec
// label the configuration; events is the replayed-event count (0 for live
// runs). A nil rp (detector "none"/"empty") yields an empty clean report.
func FromCore(detector, spec string, events int64, rp *core.Report) *Report {
	out := &Report{
		Schema:   Schema,
		Detector: detector,
		Spec:     spec,
		Events:   events,
		Races:    []Race{},
		Clean:    true,
	}
	if rp == nil {
		return out
	}
	for _, r := range rp.Races() {
		out.Races = append(out.Races, fromRace(r))
	}
	out.Distinct = rp.Distinct()
	out.Total = rp.Total()
	out.Clean = rp.Empty()
	return out
}

// FromDetector builds a Report from one detector that consumed an event
// stream, or from depa's live detector, attaching the parallel stats
// section when the detector provides it (the verdict fields come from
// FromCore unchanged).
func FromDetector(detector, spec string, events int64, det interface{ Report() *core.Report }) *Report {
	out := FromCore(detector, spec, events, det.Report())
	if pp, ok := det.(depa.ParallelStatsProvider); ok {
		out.Parallel = ParallelFrom(pp.ParallelStats())
	}
	return out
}

// FromOutcome builds a Report from one rader.Run outcome of a single
// detector or of a baseline, which has none.
func FromOutcome(out *rader.Outcome, spec string) *Report {
	if len(out.Detectors) == 0 {
		return FromCore(string(out.Detector), spec, 0, nil)
	}
	return FromDetector(string(out.Detector), spec, 0, out.Detectors[0])
}

// Multi is the verdict document for a single-pass all-detectors run or
// replay: one sub-Report per detector, in rader.AllDetectors order. Each
// sub-report is built by FromCore exactly as a standalone run of that
// detector would build it, so a per-detector document extracted from a
// Multi is byte-identical to the document a single-detector request
// produces — the property the service's fan-out cache relies on.
type Multi struct {
	Schema   int       `json:"schema"`
	Detector string    `json:"detector"` // always "all"
	Spec     string    `json:"spec,omitempty"`
	Events   int64     `json:"events,omitempty"`
	Reports  []*Report `json:"reports"`
	Clean    bool      `json:"clean"`
}

// Marshal renders the document deterministically.
func (m *Multi) Marshal() ([]byte, error) { return json.Marshal(m) }

// FromDetectors builds a Multi from detectors that consumed one replayed
// (or live) event stream, e.g. via trace.ReplayAll. spec and events label
// the configuration as in FromCore.
func FromDetectors(spec string, events int64, dets []core.Detector) *Multi {
	out := &Multi{
		Schema:   Schema,
		Detector: string(rader.All),
		Spec:     spec,
		Events:   events,
		Reports:  make([]*Report, len(dets)),
		Clean:    true,
	}
	for i, det := range dets {
		out.Reports[i] = FromDetector(det.Name(), spec, events, det)
		out.Clean = out.Clean && out.Reports[i].Clean
	}
	return out
}

// FromAllOutcome builds a Multi from the outcome of a rader.Run with the
// All detector.
func FromAllOutcome(out *rader.Outcome, spec string) *Multi {
	return FromDetectors(spec, 0, out.Detectors)
}

// Profile mirrors the sweep's measured program profile.
type Profile struct {
	MaxPDepth    int `json:"maxPDepth"`
	MaxSyncBlock int `json:"maxSyncBlock"`
	CilkDepth    int `json:"cilkDepth"`
}

// SweepFinding is one distinct determinacy race with the specification
// that elicited it.
type SweepFinding struct {
	Spec string `json:"spec"`
	Race Race   `json:"race"`
}

// SweepFailure is one sweep unit that produced an error instead of a
// verdict.
type SweepFailure struct {
	Spec  string `json:"spec"`
	Error string `json:"error"`
}

// SweepStats mirrors the sweep's execution accounting: what prefix
// sharing saved, and how much of the family the sweep covered. The values
// are deterministic for a given program and options (the trie, the
// snapshot points, the copy-on-write writes and the stratified sample are
// all schedule-independent), so they are safe in the byte-identical
// cached document. The scheduler-dependent counters (workers, steals,
// handoffs, per-worker busy time) are deliberately NOT here: they vary
// run to run and would break document identity.
type SweepStats struct {
	// Strategy is always "prefix", the only sweep rader.Sweep runs. It
	// stays in the document because the schema-5 goldens and every cached
	// or recorded sweep verdict digest hash these bytes.
	Strategy       string `json:"strategy"`
	Groups         int    `json:"groups"`
	SnapshotHits   int64  `json:"snapshotHits"`
	SnapshotMisses int64  `json:"snapshotMisses"`
	EventsSkipped  int64  `json:"eventsSkipped"`
	PagesCopied    int64  `json:"pagesCopied"`
	// SpecsTotal is the full family size; when the sweep sampled a subset,
	// Sampled is set, CoverageFraction is the fraction that ran, and
	// Confidence carries the human-readable caveat.
	SpecsTotal       int     `json:"specsTotal"`
	Sampled          bool    `json:"sampled,omitempty"`
	CoverageFraction float64 `json:"coverageFraction"`
	Confidence       string  `json:"confidence,omitempty"`
}

// Sweep is the verdict document for a §7 coverage sweep.
type Sweep struct {
	Schema       int            `json:"schema"`
	Profile      Profile        `json:"profile"`
	SpecsRun     int            `json:"specsRun"`
	ViewReads    []Race         `json:"viewReads"`
	Races        []SweepFinding `json:"races"`
	Failures     []SweepFailure `json:"failures"`
	TotalReports int            `json:"totalReports"`
	Clean        bool           `json:"clean"`
	Complete     bool           `json:"complete"`
	Stats        SweepStats     `json:"stats"`
}

// Marshal renders the document deterministically.
func (s *Sweep) Marshal() ([]byte, error) { return json.Marshal(s) }

// FromCoverage builds a Sweep from a CoverageResult. The result's Races
// and Failures are already in canonical spec order (rader.Sweep sorts
// them), so the document is identical across worker counts.
func FromCoverage(cr *rader.CoverageResult) *Sweep {
	out := &Sweep{
		Schema: Schema,
		Profile: Profile{
			MaxPDepth:    cr.Profile.MaxPDepth,
			MaxSyncBlock: cr.Profile.MaxSyncBlock,
			CilkDepth:    cr.Profile.CilkDepth,
		},
		SpecsRun:     cr.SpecsRun,
		ViewReads:    []Race{},
		Races:        []SweepFinding{},
		Failures:     []SweepFailure{},
		TotalReports: cr.TotalReports(),
		Clean:        cr.Clean(),
		Complete:     cr.Complete(),
		Stats: SweepStats{
			Strategy:         "prefix",
			Groups:           cr.Stats.Groups,
			SnapshotHits:     cr.Stats.SnapshotHits,
			SnapshotMisses:   cr.Stats.SnapshotMisses,
			EventsSkipped:    cr.Stats.EventsSkipped,
			PagesCopied:      cr.Stats.PagesCopied,
			SpecsTotal:       cr.Stats.SpecsTotal,
			Sampled:          cr.Stats.Sampled,
			CoverageFraction: cr.Stats.CoverageFraction,
			Confidence:       cr.Stats.Confidence,
		},
	}
	if cr.ViewReads != nil {
		for _, r := range cr.ViewReads.Races() {
			out.ViewReads = append(out.ViewReads, fromRace(r))
		}
	}
	for _, f := range cr.Races {
		out.Races = append(out.Races, SweepFinding{Spec: f.Spec, Race: fromRace(f.Race)})
	}
	for _, f := range cr.Failures {
		out.Failures = append(out.Failures, SweepFailure{Spec: f.Spec, Error: fmt.Sprint(f.Err)})
	}
	return out
}
