// Package core defines the shared vocabulary of the race detectors: race
// kinds, race records, the report accumulator, and the Detector interface
// that the Peer-Set, SP-bags and SP+ implementations satisfy. The paper's
// primary contribution — the two detection algorithms — lives in
// internal/peerset and internal/spplus; this package is their common
// foundation and the surface the rader driver programs against.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Kind classifies a race (§1 identifies exactly these two kinds for
// programs that use reducers).
type Kind int

const (
	// ViewRead is a view-read race: two reducer-reads at strands with
	// different peer sets (§3).
	ViewRead Kind = iota
	// Determinacy is a determinacy race: two accesses to one location,
	// at least one a write, that are logically parallel — and, when the
	// later access is view-aware, operate on parallel views (§5).
	Determinacy
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ViewRead:
		return "view-read race"
	case Determinacy:
		return "determinacy race"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AccessOp names what each racing side did.
type AccessOp int

// Access operations.
const (
	OpRead AccessOp = iota
	OpWrite
	OpReducerRead
)

// String implements fmt.Stringer.
func (op AccessOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReducerRead:
		return "reducer-read"
	default:
		return fmt.Sprintf("AccessOp(%d)", int(op))
	}
}

// Access records one side of a race.
type Access struct {
	Frame     cilk.FrameID
	Label     string
	Path      string // spawn path "main>f>g", when the detector tracks lineage
	Op        AccessOp
	ViewAware bool
	ViewOp    cilk.ViewOp // meaningful only when ViewAware
	VID       cilk.ViewID // view context of the access (SP+ only)
}

// String implements fmt.Stringer.
func (a Access) String() string {
	where := fmt.Sprintf("%s#%d", a.Label, a.Frame)
	if a.Path != "" {
		where = fmt.Sprintf("%s#%d [%s]", a.Label, a.Frame, a.Path)
	}
	s := fmt.Sprintf("%s by %s", a.Op, where)
	if a.ViewAware {
		s += fmt.Sprintf(" (view-aware %s, view %d)", a.ViewOp, a.VID)
	}
	return s
}

// Provenance explains *why* a detector reported a race: which SP relation
// fired, and where in the event stream the two sides sat. Event ordinals
// are detector-relative — the 1-based index among the events that
// detector's algorithm consumes (Peer-Set, which ignores memory traffic,
// numbers only control and reducer events) — so two detectors replaying
// one trace may assign different ordinals to the same logical access.
// FirstEvent is 0 when the detector's shadow state no longer pins the
// earlier access's position.
type Provenance struct {
	// FirstEvent is the ordinal of the earlier access (0 = unknown).
	FirstEvent int64
	// SecondEvent is the ordinal of the access at which the race fired.
	SecondEvent int64
	// Relation names the SP relation that triggered the report:
	// "reader in P-bag", "writer on parallel view", "spawn-count
	// mismatch", ...
	Relation string
}

// Race is one detected race.
type Race struct {
	Kind    Kind
	Addr    mem.Addr // racing location (Determinacy only)
	Reducer string   // racing reducer (ViewRead only)
	First   Access   // earlier access in serial order
	Second  Access   // access at which the race was detected
	Prov    Provenance
}

// String implements fmt.Stringer.
func (r Race) String() string {
	switch r.Kind {
	case ViewRead:
		return fmt.Sprintf("%v on reducer %q: %v vs %v", r.Kind, r.Reducer, r.First, r.Second)
	default:
		return fmt.Sprintf("%v at %#x: %v vs %v", r.Kind, uint64(r.Addr), r.First, r.Second)
	}
}

// raceKey dedups repeated reports of the same logical race. Detectors fire
// once per offending access, which in loops can repeat; the report keeps
// one representative per (kind, location, frame pair) and counts the rest.
type raceKey struct {
	kind          Kind
	addr          mem.Addr
	reducer       string
	first, second cilk.FrameID
}

// Report accumulates races from one detector run.
//
// A detector reports a race in two steps, so that it renders a race's
// accesses only for the races the report keeps: Admit counts the report
// and says whether to keep it, and Keep stores the rendered race.
type Report struct {
	// Limit bounds the number of distinct races retained (0 = default 1024).
	Limit int

	races []Race
	seen  map[raceKey]struct{}
	total int
}

// Admit counts one report of the race with the given key: kind, location
// (addr for a determinacy race, reducer for a view-read race) and the
// frames of its two accesses. It returns true only for a key it has not
// seen before while fewer than Limit races are retained; the caller must
// then pass the rendered race to Keep.
func (rp *Report) Admit(kind Kind, addr mem.Addr, reducer string, first, second cilk.FrameID) bool {
	rp.total++
	if rp.seen == nil {
		rp.seen = make(map[raceKey]struct{})
	}
	k := raceKey{kind: kind, addr: addr, reducer: reducer, first: first, second: second}
	if _, dup := rp.seen[k]; dup {
		return false
	}
	rp.seen[k] = struct{}{}
	limit := rp.Limit
	if limit == 0 {
		limit = 1024
	}
	return len(rp.races) < limit
}

// Keep retains r, the race Admit has just admitted.
func (rp *Report) Keep(r Race) { rp.races = append(rp.races, r) }

// Add records a race: Admit, then Keep if admitted.
func (rp *Report) Add(r Race) {
	if rp.Admit(r.Kind, r.Addr, r.Reducer, r.First.Frame, r.Second.Frame) {
		rp.Keep(r)
	}
}

// Races returns the retained distinct races in detection order.
func (rp *Report) Races() []Race { return rp.races }

// Clone returns an independent copy of the report; adding to either side
// afterward leaves the other unchanged.
func (rp *Report) Clone() *Report {
	out := &Report{Limit: rp.Limit, total: rp.total}
	out.races = append(make([]Race, 0, len(rp.races)), rp.races...)
	if rp.seen != nil {
		out.seen = make(map[raceKey]struct{}, len(rp.seen))
		for k := range rp.seen {
			out.seen[k] = struct{}{}
		}
	}
	return out
}

// CopyFrom makes rp an independent copy of src, reusing rp's allocations
// where possible.
func (rp *Report) CopyFrom(src *Report) {
	rp.Limit = src.Limit
	rp.total = src.total
	rp.races = append(rp.races[:0], src.races...)
	if rp.seen != nil {
		clear(rp.seen)
	}
	if src.seen != nil {
		if rp.seen == nil {
			rp.seen = make(map[raceKey]struct{}, len(src.seen))
		}
		for k := range src.seen {
			rp.seen[k] = struct{}{}
		}
	}
}

// Reset empties the report, keeping allocated capacity for reuse.
func (rp *Report) Reset() {
	rp.races = rp.races[:0]
	clear(rp.seen)
	rp.total = 0
}

// Total returns the total number of race reports, counting duplicates.
func (rp *Report) Total() int { return rp.total }

// Distinct returns the number of distinct races seen.
func (rp *Report) Distinct() int { return len(rp.seen) }

// Empty reports whether no race was detected.
func (rp *Report) Empty() bool { return rp.total == 0 }

// HasKind reports whether any race of kind k was detected.
func (rp *Report) HasKind(k Kind) bool {
	for _, r := range rp.races {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// Summary renders a human-readable digest.
func (rp *Report) Summary() string {
	if rp.Empty() {
		return "no races detected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d distinct race(s), %d report(s) total:\n", rp.Distinct(), rp.Total())
	lines := make([]string, 0, len(rp.races))
	for _, r := range rp.races {
		lines = append(lines, "  "+r.String())
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// Detector is a race-detection algorithm driven by the cilk event stream.
type Detector interface {
	cilk.Hooks
	// Name identifies the algorithm ("peer-set", "sp-bags", "sp+").
	Name() string
	// Report returns the races accumulated so far.
	Report() *Report
}

// Stats is the bookkeeping account of a disjoint-set-based detector: the
// number of Find and Union operations performed (each amortized O(α)) and
// the number of set elements created. The paper's Theorem 1 and Theorem 5
// bounds are, concretely, Finds+Unions = O(events) with the α factor
// hidden in each operation.
type Stats struct {
	Elems  int
	Finds  uint64
	Unions uint64
}

// StatsProvider is implemented by detectors that expose their accounting.
type StatsProvider interface {
	Stats() Stats
}

// EventCountsProvider is implemented by detectors that account for the
// event classes they consumed (obs.EventCounts), the measurement substrate
// behind the Figure 7/8 per-class overhead breakdown.
type EventCountsProvider interface {
	EventCounts() obs.EventCounts
}

// PushRecord pushes a frame record onto a detector's frame stack and
// returns it. A record lives exactly as long as its frame's place on the
// serial stack, so the push reuses the record a returned frame left parked
// past the stack's length: a detector allocates one record per depth, not
// one per frame. The caller resets every field it reads, except state
// it keeps per depth on purpose, such as the bag detectors' bag indices.
func PushRecord[T any](stack []*T) ([]*T, *T) {
	n := len(stack)
	if n < cap(stack) {
		stack = stack[:n+1]
		if rec := stack[n]; rec != nil {
			return stack, rec
		}
	} else {
		stack = append(stack, nil)
	}
	rec := new(T)
	stack[n] = rec
	return stack, rec
}
