package elide

import "encoding/json"

// AuditSchema versions the audit artifact.
const AuditSchema = 1

// The audit taxonomy. Every class except must-keep is proven race-free
// and elided; the split explains which proof applied.
const (
	// ClassStrandLocal: every access happened on one strand — nothing to
	// race with.
	ClassStrandLocal = "strand-local"
	// ClassReadOnly: no store ever touched the address.
	ClassReadOnly = "read-only"
	// ClassSyncSerialized: stores exist and multiple strands touched the
	// address, but every pair is ordered by the SP relation — each access
	// lies beyond the last sync frontier of every conflicting predecessor.
	ClassSyncSerialized = "sync-serialized"
	// ClassViewProtected: every access sits inside reducer view-operation
	// windows and the SP relation serializes them — the reducer's views
	// protected the location.
	ClassViewProtected = "view-protected"
	// ClassMustKeep: a depa shadow rule fired — some access is logically
	// parallel with a prior conflicting access. Kept verbatim.
	ClassMustKeep = "must-keep"
)

// classOrder fixes the audit's class ordering (deterministic JSON).
var classOrder = [...]string{
	ClassStrandLocal,
	ClassReadOnly,
	ClassSyncSerialized,
	ClassViewProtected,
	ClassMustKeep,
}

// AddrRange is a closed address interval in the audit.
type AddrRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// appendAddrRange extends the last range when a is its successor
// (callers feed addresses in ascending order).
func appendAddrRange(rs []AddrRange, a uint64) []AddrRange {
	if n := len(rs); n > 0 && rs[n-1].Hi+1 == a {
		rs[n-1].Hi = a
		return rs
	}
	return append(rs, AddrRange{Lo: a, Hi: a})
}

// ClassSummary is one class's slice of the address space.
type ClassSummary struct {
	Class     string      `json:"class"`
	Addresses int64       `json:"addresses"`
	Events    int64       `json:"events"` // access events at these addresses
	Elided    bool        `json:"elided"`
	Ranges    []AddrRange `json:"ranges,omitempty"`
}

// Audit is the machine-readable "why elided" artifact: what the
// classifier proved, per class, and the stream-level accounting. It
// contains only structs and slices, so equal values marshal to equal
// bytes.
type Audit struct {
	Schema           int   `json:"schema"`
	OriginalEvents   int64 `json:"originalEvents"`
	FilteredEvents   int64 `json:"filteredEvents"`
	ElidedEvents     int64 `json:"elidedEvents"`
	ElidedBytes      int64 `json:"elidedBytes"`
	OriginalAccesses int64 `json:"originalAccesses"`
	KeptAccesses     int64 `json:"keptAccesses"`
	Addresses        int64 `json:"addresses"`
	// Shrink is OriginalEvents / FilteredEvents — the replay-work ratio
	// the pass buys.
	Shrink float64 `json:"shrink"`
	// FastPathHits is the depa coalescing hit count on the *full*
	// stream; FixupReport restores it into the parallel stats section,
	// where elision-induced coalescing drift would otherwise show.
	FastPathHits int64          `json:"fastPathHits"`
	Classes      []ClassSummary `json:"classes"`
}

// Marshal renders the audit artifact (indented: it is a human-facing
// diagnostic as much as a machine-readable one).
func (a *Audit) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
