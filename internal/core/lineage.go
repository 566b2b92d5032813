package core

import (
	"strings"

	"repro/internal/chunk"
	"repro/internal/cilk"
)

// Lineage records, for each detector element (function instantiation or
// reduce invocation), its frame, label and parent element, so a race
// report can reconstruct the spawn path of each participant on demand —
// "main>update_list>insert" tells the user where the racing strand came
// from without any cost on the hot path.
//
// Entries are pointer-free: a label is an index into an append-only label
// table. They live in a chunk.Store, so growing the lineage copies no
// entry and the garbage collector never scans it.
type Lineage struct {
	meta   chunk.Store[lineageEntry]
	labels []string         // append-only label table
	index  map[string]int32 // label → position in labels
	last   int32            // position of the label interned last
}

type lineageEntry struct {
	frame  cilk.FrameID
	label  int32 // index into labels; -1 for none
	parent int32
	reduce bool // a reduce invocation of the frame: label renders "/reduce"
}

// NoParent marks a root element.
const NoParent int32 = -1

// CopyFrom makes l an independent copy of src, reusing l's capacity.
func (l *Lineage) CopyFrom(src *Lineage) {
	l.meta.CopyFrom(&src.meta)
	l.labels = l.labels[:0]
	clear(l.index)
	for _, s := range src.labels {
		l.appendLabel(s)
	}
	l.last = src.last
}

// Reset empties the lineage, keeping allocated capacity for reuse. The
// label table survives: labels are interned for the lineage's lifetime.
func (l *Lineage) Reset() { l.meta.Reset() }

// intern returns the table index of label, appending it on first sight.
func (l *Lineage) intern(label string) int32 {
	// Consecutive elements usually share a label (one function entered
	// many times), so check the last one before hashing.
	if int(l.last) < len(l.labels) && l.labels[l.last] == label {
		return l.last
	}
	li, ok := l.index[label]
	if !ok {
		li = l.appendLabel(label)
	}
	l.last = li
	return li
}

func (l *Lineage) appendLabel(label string) int32 {
	if l.index == nil {
		l.index = make(map[string]int32)
	}
	li := int32(len(l.labels))
	l.labels = append(l.labels, label)
	l.index[label] = li
	return li
}

// Add registers element id (dense, append-ordered) with its parent.
func (l *Lineage) Add(id int32, frame cilk.FrameID, label string, parent int32) {
	l.set(id, lineageEntry{frame: frame, label: l.intern(label), parent: parent})
}

// AddReduce registers element id as a reduce invocation of frame: its
// label renders as label+"/reduce".
func (l *Lineage) AddReduce(id int32, frame cilk.FrameID, label string, parent int32) {
	l.set(id, lineageEntry{frame: frame, label: l.intern(label), parent: parent, reduce: true})
}

// AddCopy registers element id with the frame, label and parent of
// element of, so both render the same path.
func (l *Lineage) AddCopy(id, of int32) {
	l.set(id, *l.meta.At(of))
}

// set stores e as element id. Elements are dense: id is at most one past
// the last element, and a gap, if a caller leaves one, renders as a root
// with no label.
func (l *Lineage) set(id int32, e lineageEntry) {
	for int(id) > l.meta.Len() {
		l.meta.Append(lineageEntry{label: -1, parent: NoParent})
	}
	if int(id) == l.meta.Len() {
		l.meta.Append(e)
		return
	}
	*l.meta.At(id) = e
}

// entry returns element id's entry, or false when id is out of range.
func (l *Lineage) entry(id int32) (lineageEntry, bool) {
	if id < 0 || int(id) >= l.meta.Len() {
		return lineageEntry{}, false
	}
	return *l.meta.At(id), true
}

// Frame returns the frame of element id.
func (l *Lineage) Frame(id int32) cilk.FrameID {
	e, ok := l.entry(id)
	if !ok {
		return -1
	}
	return e.frame
}

// Label returns the label of element id.
func (l *Lineage) Label(id int32) string {
	e, ok := l.entry(id)
	if !ok {
		return "?"
	}
	return l.label(e)
}

func (l *Lineage) label(e lineageEntry) string {
	switch {
	case e.label < 0:
		return ""
	case e.reduce:
		return l.labels[e.label] + "/reduce"
	}
	return l.labels[e.label]
}

// Path reconstructs the spawn path of element id, innermost last,
// truncated to the last 16 segments.
func (l *Lineage) Path(id int32) string {
	const defaultDepth = 16
	var segs []string
	for e, ok := l.entry(id); ok; e, ok = l.entry(e.parent) {
		segs = append(segs, l.label(e))
		if len(segs) > defaultDepth {
			segs = append(segs, "…")
			break
		}
	}
	// reverse
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return strings.Join(segs, ">")
}

// Access renders element id's side of a race: its frame, label and
// spawn path, with operation op.
func (l *Lineage) Access(id int32, op AccessOp) Access {
	return Access{Frame: l.Frame(id), Label: l.Label(id), Path: l.Path(id), Op: op}
}
