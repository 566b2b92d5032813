// Single-pass multi-consumer replay: the fan-out engine behind the
// service's "analyze under everything" path. Replay (trace.go) streams
// from an io.Reader and folds the CRC byte by byte — general, but it pays
// the full decode cost once per consumer when a trace is analysed under
// several detectors. The Replayer in this file decodes an in-memory
// stream exactly once and fans every event out to all registered hooks,
// with a pooled, allocation-free decode loop:
//
//   - frames come from a chunked arena that is reused across replays
//     (chunks never move, so frame pointers stay stable while the table
//     grows);
//   - the frame table is a dense slice indexed by FrameID — the writer
//     assigns IDs in entry order — with a map fallback for adversarial
//     streams;
//   - labels are interned, so a function name that enters a million
//     frames is allocated once, not a million times;
//   - the CRC32C integrity check runs as one bulk pass over the event
//     bytes when the footer is reached, instead of per decoded byte.
//
// In the steady state the decode loop performs zero allocations per
// event (BenchmarkReplayAll and TestReplayAllSteadyStateAllocs pin this
// down), which is what makes the single-pass all-detectors path cheaper
// than even one streaming replay plus decode.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/streamerr"
)

// frameChunk is the arena chunk size. Chunks are allocated whole and kept
// across replays; they are never resliced or copied, so a *cilk.Frame
// handed to a consumer stays valid until the engine's next replay.
const frameChunk = 512

// maxInterned bounds the label intern table so an adversarial stream with
// millions of distinct labels cannot pin memory in a pooled engine.
const maxInterned = 4096

// Replayer is a reusable single-pass replay engine. One Replay call
// decodes an encoded CILKTRACE stream exactly once and feeds every
// registered cilk.Hooks consumer — detectors, the dag recorder, digest
// accounting — in event order, producing behaviour bit-identical to one
// streaming Replay per consumer. The zero value is not ready; use
// NewReplayer (or the pooled ReplayAll front door).
//
// A Replayer is not safe for concurrent use, and the *cilk.Frame and
// *cilk.Reducer objects it synthesizes are owned by its arena: they are
// valid until the next Replay call on the same engine. Detector reports
// copy frame IDs and labels out, so verdicts survive engine reuse.
type Replayer struct {
	chunks [][]cilk.Frame // arena; reused across replays
	used   int            // frames handed out this replay

	table    []*cilk.Frame                // dense frame table indexed by FrameID
	overflow map[cilk.FrameID]*cilk.Frame // non-sequential IDs (adversarial streams)
	stack    []*cilk.Frame
	reducers map[int]*cilk.Reducer
	labels   map[string]string // intern table; persists across replays

	// per-replay decode state
	body    []byte
	off     int
	events  int64
	hooks   cilk.Hooks
	skip    *SkipSet // addresses whose Load/Store events bypass the hooks
	skipped int64    // access events elided by skip this replay
	// cuts, set only by FilterAccesses, collects the body offsets
	// [start, end) of the skipped access records, adjacent records
	// merged into one span.
	cuts *[][2]int

	// classes counts decoded events by kind byte. One unconditional
	// array increment per event — no branch, no allocation — so the
	// accounting is always on and the zero-alloc steady state holds
	// whether or not anyone snapshots it (Stats).
	classes [evMax]int64
}

// NewReplayer returns an empty engine. Engines amortize their arenas
// across replays; hold one per worker (or use the pooled ReplayAll) to
// get the zero-allocation steady state.
func NewReplayer() *Replayer {
	return &Replayer{
		reducers: make(map[int]*cilk.Reducer),
		labels:   make(map[string]string),
	}
}

var replayerPool = sync.Pool{New: func() any { return NewReplayer() }}

// ReplayAll replays an in-memory stream exactly once into every hook
// through a pooled engine — the package's one front door to the
// single-pass Replayer: three detectors cost one decode, not three.
// Access events whose address falls in skip are decoded and validated
// but never reach the hooks (see Replayer.ReplaySkip); a nil skip
// replays everything. A non-nil stats is filled with the replay's
// ReplayStats, successful or not — a truncated stream still reports what
// was decoded.
func ReplayAll(data []byte, skip *SkipSet, stats *ReplayStats, hooks ...cilk.Hooks) (int64, error) {
	rp := replayerPool.Get().(*Replayer)
	defer replayerPool.Put(rp)
	n, err := rp.ReplaySkip(data, skip, hooks...)
	if stats != nil {
		*stats = rp.Stats()
	}
	return n, err
}

// reset rewinds the engine for a fresh stream, keeping the arenas and the
// intern table warm.
func (rp *Replayer) reset() {
	rp.used = 0
	rp.table = rp.table[:0]
	if len(rp.overflow) > 0 {
		rp.overflow = nil
	}
	rp.stack = rp.stack[:0]
	for k := range rp.reducers {
		delete(rp.reducers, k)
	}
	rp.off = 0
	rp.events = 0
	rp.skipped = 0
	rp.classes = [evMax]int64{}
}

// newFrame hands out the next arena slot, growing by whole chunks so
// existing frame pointers never move.
func (rp *Replayer) newFrame() *cilk.Frame {
	ci, cj := rp.used/frameChunk, rp.used%frameChunk
	if ci == len(rp.chunks) {
		rp.chunks = append(rp.chunks, make([]cilk.Frame, frameChunk))
	}
	rp.used++
	return &rp.chunks[ci][cj]
}

func (rp *Replayer) insertFrame(f *cilk.Frame) {
	switch fid := f.ID; {
	case fid >= 0 && int(fid) < len(rp.table):
		rp.table[fid] = f
	case fid >= 0 && int(fid) == len(rp.table):
		rp.table = append(rp.table, f)
	default:
		if rp.overflow == nil {
			rp.overflow = make(map[cilk.FrameID]*cilk.Frame)
		}
		rp.overflow[fid] = f
	}
}

func (rp *Replayer) frameOf(id uint64) (*cilk.Frame, error) {
	if id < uint64(len(rp.table)) {
		if f := rp.table[id]; f != nil {
			return f, nil
		}
	} else if id > math.MaxInt32 {
		return nil, frameIDOverflow(id, rp.events, int64(rp.off))
	} else if f, ok := rp.overflow[cilk.FrameID(id)]; ok {
		return f, nil
	}
	return nil, streamerr.Errorf("trace", streamerr.KindOrder,
		"unknown frame %d", id).WithEvent(rp.events).WithFrame(int64(id)).WithOffset(int64(rp.off))
}

func (rp *Replayer) reducerOf(idx uint64) *cilk.Reducer {
	r, ok := rp.reducers[int(idx)]
	if !ok {
		r = cilk.SyntheticReducer(fmt.Sprintf("reducer#%d", idx), int(idx))
		rp.reducers[int(idx)] = r
	}
	return r
}

func (rp *Replayer) truncated() error {
	return streamerr.Errorf("trace", streamerr.KindTruncated,
		"stream truncated mid-event").WithEvent(rp.events).WithOffset(int64(rp.off))
}

// u decodes one unsigned varint from the current offset.
func (rp *Replayer) u() (uint64, error) {
	v, n := binary.Uvarint(rp.body[rp.off:])
	if n > 0 {
		rp.off += n
		return v, nil
	}
	if n == 0 {
		rp.off = len(rp.body)
		return 0, rp.truncated()
	}
	return 0, streamerr.Errorf("trace", streamerr.KindMalformed,
		"varint overflows 64 bits").WithEvent(rp.events).WithOffset(int64(rp.off))
}

// intern returns a shared string for b, allocating it at most once per
// engine lifetime (bounded by maxInterned distinct labels).
func (rp *Replayer) intern(b []byte) string {
	if s, ok := rp.labels[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(rp.labels) < maxInterned {
		rp.labels[s] = s
	}
	return s
}

// str decodes one length-prefixed label.
func (rp *Replayer) str() (string, error) {
	n, err := rp.u()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", streamerr.Errorf("trace", streamerr.KindMalformed,
			"label of %d bytes", n).WithEvent(rp.events).WithOffset(int64(rp.off))
	}
	if uint64(len(rp.body)-rp.off) < n {
		// The streaming replayer's offset counts only fully consumed
		// bytes, so a label cut mid-way reports the position after its
		// length varint; keep rp.off there for identical errors.
		return "", rp.truncated()
	}
	b := rp.body[rp.off : rp.off+int(n)]
	rp.off += int(n)
	return rp.intern(b), nil
}

// Replay decodes data — one full encoded stream, header to footer — and
// drives every hook with the reconstructed events. It accepts the same
// v1/v2 formats as the streaming Replay, synthesizes identical frame and
// reducer metadata, and classifies failures with the same
// *streamerr.Error kinds; the only observable difference is speed. It
// returns the number of events replayed.
func (rp *Replayer) Replay(data []byte, hooks ...cilk.Hooks) (events int64, err error) {
	rp.skip = nil
	return rp.replay(data, hooks...)
}

// ReplaySkip is Replay with an address-range skip set: Load and Store
// events whose address falls in skip are fully decoded and validated —
// the event count, per-class accounting, frame-table checks and footer
// verification are identical to a plain Replay — but never reach the
// hooks. Consumers therefore observe exactly the event sequence a
// FilterAccesses-filtered trace would replay, at full-trace integrity.
func (rp *Replayer) ReplaySkip(data []byte, skip *SkipSet, hooks ...cilk.Hooks) (events int64, err error) {
	rp.skip = skip
	return rp.replay(data, hooks...)
}

func (rp *Replayer) replay(data []byte, hooks ...cilk.Hooks) (events int64, err error) {
	rp.reset()
	rp.hooks = cilk.MultiHooks(hooks...)
	// Contract violations out of a detector (and any other consumer
	// panic) become typed errors, exactly as in the streaming Replay.
	defer func() {
		if p := recover(); p != nil {
			se := streamerr.FromPanic("trace", p)
			if se.Event < 0 {
				se.Event = rp.events
			}
			if se.Offset < 0 {
				se.Offset = int64(rp.off)
			}
			events, err = rp.events, se
		}
	}()

	var v2 bool
	switch {
	case len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic:
		v2 = true
	case len(data) >= len(MagicV1) && string(data[:len(MagicV1)]) == MagicV1:
		v2 = false
	case len(data) == 0:
		return 0, streamerr.Errorf("trace", streamerr.KindTruncated,
			"reading header: %v", io.EOF)
	case len(data) < len(Magic):
		return 0, streamerr.Errorf("trace", streamerr.KindTruncated,
			"reading header: %v", io.ErrUnexpectedEOF)
	default:
		return 0, streamerr.New("trace", streamerr.KindMalformed, "bad magic header")
	}
	rp.body = data[len(Magic):]
	h := rp.hooks

	for {
		offAtRecord := rp.off
		if rp.off >= len(rp.body) {
			if v2 {
				return rp.events, streamerr.Errorf("trace", streamerr.KindTruncated,
					"stream ended without footer").WithEvent(rp.events).WithOffset(int64(rp.off))
			}
			return rp.events, nil
		}
		kb := rp.body[rp.off]
		rp.off++
		if v2 && kb == footerKind {
			if len(rp.body)-offAtRecord < footerLen {
				return rp.events, streamerr.Errorf("trace", streamerr.KindTruncated,
					"stream ended inside footer").WithEvent(rp.events).WithOffset(int64(offAtRecord))
			}
			foot := rp.body[rp.off : rp.off+footerLen-1]
			wantCRC := binary.LittleEndian.Uint32(foot[0:4])
			wantN := binary.LittleEndian.Uint64(foot[4:12])
			// One bulk CRC pass over the event bytes replaces the
			// streaming replayer's per-byte folding.
			if got := crc32.Update(0, castagnoli, rp.body[:offAtRecord]); wantCRC != got {
				return rp.events, streamerr.Errorf("trace", streamerr.KindCorrupt,
					"CRC mismatch: footer %08x, stream %08x", wantCRC, got).
					WithEvent(rp.events).WithOffset(int64(offAtRecord))
			}
			if wantN != uint64(rp.events) {
				return rp.events, streamerr.Errorf("trace", streamerr.KindCorrupt,
					"footer records %d events, stream replayed %d", wantN, rp.events).
					WithEvent(rp.events).WithOffset(int64(offAtRecord))
			}
			if offAtRecord+footerLen != len(rp.body) {
				return rp.events, streamerr.New("trace", streamerr.KindCorrupt,
					"trailing data after footer").WithEvent(rp.events).WithOffset(int64(offAtRecord + footerLen))
			}
			return rp.events, nil
		}
		k := kind(kb)
		if k == 0 || k >= evMax {
			return rp.events, streamerr.Errorf("trace", streamerr.KindMalformed,
				"bad event kind %d", kb).WithEvent(rp.events).WithOffset(int64(offAtRecord))
		}
		rp.events++
		rp.classes[k]++
		switch k {
		case evProgramStart:
			// The root frame arrives with the first FrameEnter.
		case evProgramEnd:
			if len(rp.stack) > 0 {
				h.ProgramEnd(rp.stack[0])
			}
		case evFrameEnterSpawn, evFrameEnterCall:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			if id > math.MaxInt32 {
				return rp.events, frameIDOverflow(id, rp.events, int64(rp.off))
			}
			label, err := rp.str()
			if err != nil {
				return rp.events, err
			}
			f := rp.newFrame()
			*f = cilk.Frame{ID: cilk.FrameID(id), Label: label, Spawned: k == evFrameEnterSpawn}
			if n := len(rp.stack); n > 0 {
				f.Parent = rp.stack[n-1]
				f.Depth = f.Parent.Depth + 1
			}
			rp.insertFrame(f)
			rp.stack = append(rp.stack, f)
			if len(rp.stack) == 1 {
				h.ProgramStart(f)
			}
			h.FrameEnter(f)
		case evFrameReturn:
			gid, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			fid, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			g, err := rp.frameOf(gid)
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(fid)
			if err != nil {
				return rp.events, err
			}
			if len(rp.stack) == 0 || rp.stack[len(rp.stack)-1] != g {
				return rp.events, streamerr.Errorf("trace", streamerr.KindOrder,
					"return of %d does not match frame stack", gid).
					WithEvent(rp.events).WithFrame(int64(gid)).WithOffset(int64(offAtRecord))
			}
			rp.stack = rp.stack[:len(rp.stack)-1]
			h.FrameReturn(g, f)
		case evSync:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			h.Sync(f)
		case evStolen:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			vid, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			h.ContinuationStolen(f, cilk.ViewID(vid))
		case evReduceStart:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			keep, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			die, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			h.ReduceStart(f, cilk.ViewID(keep), cilk.ViewID(die))
		case evReduceEnd:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			h.ReduceEnd(f)
		case evVABegin, evVAEnd:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			op, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			ridx, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			if op > uint64(cilk.OpReduce) {
				return rp.events, streamerr.Errorf("trace", streamerr.KindMalformed,
					"bad view op %d", op).WithEvent(rp.events).WithOffset(int64(offAtRecord))
			}
			if k == evVABegin {
				h.ViewAwareBegin(f, cilk.ViewOp(op), rp.reducerOf(ridx))
			} else {
				h.ViewAwareEnd(f, cilk.ViewOp(op), rp.reducerOf(ridx))
			}
		case evReducerCreate:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			ridx, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			name, err := rp.str()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			r := cilk.SyntheticReducer(name, int(ridx))
			rp.reducers[int(ridx)] = r
			h.ReducerCreate(f, r)
		case evReducerRead:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			ridx, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			h.ReducerRead(f, rp.reducerOf(ridx))
		case evLoad, evStore:
			id, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			a, err := rp.u()
			if err != nil {
				return rp.events, err
			}
			f, err := rp.frameOf(id)
			if err != nil {
				return rp.events, err
			}
			// The elision fast path: a skipped access is still decoded,
			// counted and frame-checked above — stream validation and the
			// footer contract are unchanged — it just never reaches the
			// consumers.
			if rp.skip.Contains(mem.Addr(a)) {
				rp.skipped++
				if c := rp.cuts; c != nil {
					if n := len(*c); n > 0 && (*c)[n-1][1] == offAtRecord {
						(*c)[n-1][1] = rp.off
					} else {
						*c = append(*c, [2]int{offAtRecord, rp.off})
					}
				}
				break
			}
			if k == evLoad {
				h.Load(f, mem.Addr(a))
			} else {
				h.Store(f, mem.Addr(a))
			}
		}
	}
}
