package spplus

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/streamerr"
)

// Snapshot is an immutable point-in-time copy of a Detector's full state:
// the frame stack, the bag table with its free list and forest, the
// lineage and race report, the four shadow spaces (copy-on-write, so the
// cost is O(pages materialized), not O(addresses)), and the scalar
// counters. One snapshot can seed any number of detectors via Restore —
// the fork operation behind the prefix-sharing coverage sweep.
//
// Snapshots may only be taken at a continuation-probe boundary (outside
// view-aware sections and reduce strands): that is where the sweep's trie
// branch points live, and it is the only place the detector has no
// transient mid-operation state.
type Snapshot struct {
	bags  dsu.Bags
	stack []*frameRec

	reader   *mem.ShadowSnap
	writer   *mem.ShadowSnap
	readerEv *mem.ShadowSnap
	writerEv *mem.ShadowSnap

	lin    core.Lineage
	report *core.Report
	counts obs.EventCounts
	events int64
}

// copyFramesInto copies a frame stack into out's records, reusing the
// ones out already holds. Records hold only bag-table indices, so a copy
// of the stack plus a copy of the bag table is a copy of the bags.
func copyFramesInto(out, stack []*frameRec) []*frameRec {
	out = out[:0]
	for _, fr := range stack {
		var nfr *frameRec
		out, nfr = core.PushRecord(out)
		pstack := append(nfr.pstack[:0], fr.pstack...)
		*nfr = *fr
		nfr.pstack = pstack
	}
	return out
}

// Snapshot captures the detector's state. It panics if called inside a
// view-aware section or reduce strand — the sweep only snapshots at
// continuation probes, where neither can be live.
func (d *Detector) Snapshot() *Snapshot {
	return d.SnapshotInto(nil)
}

// SnapshotInto is Snapshot reusing a retired snapshot's containers: the
// frame records, the bag table, the forest's chunks, the shadow page maps
// and the report's storage. The work-stealing sweep refcounts handed-off
// snapshots and, once every seeded thief has restored, recycles the
// struct through a per-worker free list. Passing nil allocates fresh,
// exactly like Snapshot.
// Recycling is safe because Restore copies state out of the snapshot; the
// only aliased storage is the copy-on-write page buffers, which are
// immutable once shared and are never reused here.
func (d *Detector) SnapshotInto(s *Snapshot) *Snapshot {
	if d.vaDepth != 0 || d.inReduce {
		panic(core.Violatef(d.layer, streamerr.KindState, d.currentFrameID(),
			"snapshot inside a view-aware or reduce strand (vaDepth=%d inReduce=%v)",
			d.vaDepth, d.inReduce))
	}
	if s == nil {
		s = &Snapshot{}
	}
	s.stack = copyFramesInto(s.stack, d.stack)
	s.bags.CopyFrom(&d.bags)
	s.reader = d.reader.SnapshotInto(s.reader)
	s.writer = d.writer.SnapshotInto(s.writer)
	s.readerEv = d.readerEv.SnapshotInto(s.readerEv)
	s.writerEv = d.writerEv.SnapshotInto(s.writerEv)
	if s.report == nil {
		s.report = d.report.Clone()
	} else {
		s.report.CopyFrom(&d.report)
	}
	s.counts = d.counts
	s.events = d.events
	s.lin.CopyFrom(&d.lin)
	return s
}

// Restore replaces the detector's state with an independent copy of the
// snapshot's, as if the detector had processed exactly the event prefix
// the snapshot was taken after. Restoring reuses the detector's existing
// allocations where possible, so pooled detectors fork cheaply.
func (d *Detector) Restore(s *Snapshot) {
	d.stack = copyFramesInto(d.stack, s.stack)
	d.unslotParked()
	d.bags.CopyFrom(&s.bags)
	d.reader.Restore(s.reader)
	d.writer.Restore(s.writer)
	d.readerEv.Restore(s.readerEv)
	d.writerEv.Restore(s.writerEv)
	d.lin.CopyFrom(&s.lin)
	d.report.CopyFrom(s.report)
	d.vaDepth = 0
	d.vaOp = 0
	d.inReduce = false
	d.reduceVID = 0
	d.reduceElem = dsu.None
	d.counts = s.counts
	d.events = s.events
}

// unslotParked clears the slotted flag of every record parked past the
// stack top: their bag indices belong to a bag table that Reset or
// Restore is replacing, so their next push must allocate fresh bags.
func (d *Detector) unslotParked() {
	for _, r := range d.stack[len(d.stack):cap(d.stack)] {
		if r != nil {
			r.slotted = false
		}
	}
}

// Reset returns the detector to its freshly constructed state, keeping
// allocated capacity (bag table, forest chunks, shadow pages, lineage and
// report backing arrays) so pooled sweep units reuse memory across runs. The
// shadow PagesCopied counters survive as lifetime totals.
func (d *Detector) Reset() {
	d.bags.Reset()
	d.stack = d.stack[:0]
	d.unslotParked()
	d.reader.Reset()
	d.writer.Reset()
	d.readerEv.Reset()
	d.writerEv.Reset()
	d.lin.Reset()
	d.report.Reset()
	d.vaDepth = 0
	d.vaOp = 0
	d.inReduce = false
	d.reduceVID = 0
	d.reduceElem = dsu.None
	d.counts = obs.EventCounts{}
	d.events = 0
}

// PagesCopied totals the copy-on-write page clones across the detector's
// four shadow spaces — the sweep's cost-of-forking metric.
func (d *Detector) PagesCopied() uint64 {
	return d.reader.PagesCopied() + d.writer.PagesCopied() +
		d.readerEv.PagesCopied() + d.writerEv.PagesCopied()
}

// PagesPooled totals the page buffers parked on the four shadow free
// lists, the residency behind the raderd_sweep_pages_pooled gauge.
func (d *Detector) PagesPooled() int {
	return d.reader.PagesPooled() + d.writer.PagesPooled() +
		d.readerEv.PagesPooled() + d.writerEv.PagesPooled()
}

// Events reports the detector-relative ordinal of the last processed
// event, used by sweep accounting.
func (d *Detector) Events() int64 { return d.events }

func (d *Detector) currentFrameID() cilk.FrameID {
	if len(d.stack) == 0 {
		return cilk.NoFrame
	}
	return d.top().id
}
