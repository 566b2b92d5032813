package trace

// ReplayStats is one replay's decode accounting: what the single-pass
// engine consumed and what its pooled resources look like afterwards. It
// is the observability face of the Replayer — the data behind a "replay"
// span in a -profile-out trace and the events-decoded counters of the
// analysis service.
type ReplayStats struct {
	// Events and Bytes are the decoded event count and total encoded
	// stream length (header and footer included).
	Events int64 `json:"events"`
	Bytes  int64 `json:"bytes"`
	// Frames is the number of frame records synthesized; ArenaChunks is
	// the arena footprint backing them (chunks persist across replays on
	// a pooled engine, so this can exceed the current stream's needs).
	Frames      int `json:"frames"`
	ArenaChunks int `json:"arenaChunks"`
	// InternedLabels is the resident label intern table size.
	InternedLabels int `json:"internedLabels"`
	// Classes maps event-class name → decoded count, covering every
	// event kind the format defines.
	Classes map[string]int64 `json:"classes,omitempty"`
	// Skipped is the number of access events the elision skip set kept
	// away from the hooks (ReplaySkip; zero for a plain replay). Skipped
	// events still count in Events and Classes — they were decoded and
	// validated, just not dispatched.
	Skipped int64 `json:"skipped,omitempty"`
}

// classNames labels the event kinds for ReplayStats.Classes.
var classNames = [evMax]string{
	evProgramStart:    "program-start",
	evProgramEnd:      "program-end",
	evFrameEnterSpawn: "frame-enter-spawn",
	evFrameEnterCall:  "frame-enter-call",
	evFrameReturn:     "frame-return",
	evSync:            "sync",
	evStolen:          "steal",
	evReduceStart:     "reduce-start",
	evReduceEnd:       "reduce-end",
	evVABegin:         "view-aware-begin",
	evVAEnd:           "view-aware-end",
	evReducerCreate:   "reducer-create",
	evReducerRead:     "reducer-read",
	evLoad:            "load",
	evStore:           "store",
}

// Stats snapshots the engine's accounting for the most recent Replay
// call. Call before handing a pooled engine back (ReplayAll does this for
// its callers).
func (rp *Replayer) Stats() ReplayStats {
	st := ReplayStats{
		Events:         rp.events,
		Bytes:          int64(len(rp.body) + len(Magic)),
		Frames:         rp.used,
		ArenaChunks:    len(rp.chunks),
		InternedLabels: len(rp.labels),
		Classes:        make(map[string]int64),
		Skipped:        rp.skipped,
	}
	for k, n := range rp.classes {
		if n > 0 {
			st.Classes[classNames[k]] = n
		}
	}
	return st
}
