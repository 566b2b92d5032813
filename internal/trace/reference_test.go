package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/streamerr"
)

// replayReader tracks the byte offset and running CRC of everything the
// decoder consumes, so failures can name the exact stream position and the
// v2 footer can be verified.
type replayReader struct {
	br  *bufio.Reader
	off int64
	crc uint32
	one [1]byte
}

// ReadByte implements io.ByteReader (binary.ReadUvarint reads through it).
func (r *replayReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.off++
	r.one[0] = b
	r.crc = crc32.Update(r.crc, castagnoli, r.one[:])
	return b, nil
}

func (r *replayReader) full(b []byte) error {
	if _, err := io.ReadFull(r.br, b); err != nil {
		return err
	}
	r.off += int64(len(b))
	r.crc = crc32.Update(r.crc, castagnoli, b)
	return nil
}

// replayReference is the streaming decoder the Replayer is checked
// against: it reads data one byte at a time through a bufio.Reader, folds the CRC as it goes, keeps every frame in a map, and
// drives hooks with the reconstructed event stream. Written independently
// of the Replayer's pooled arena, interned labels and bulk CRC pass, it
// must agree with ReplayAll on every input — event count, error kind and
// error text — which the parity tests and FuzzReplay assert.
//
// Frame and reducer objects are synthesized: frames carry ID, label,
// spawn flag, parent and depth; reducers carry name and index. A reducer
// declared quietly (cilk.NewReducerQuiet) has no creation event in the
// stream, so it replays under the synthetic name "reducer#<idx>". On
// failure the returned error is a *streamerr.Error, classified exactly as
// ReplayAll classifies it.
func replayReference(data []byte, hooks cilk.Hooks) (events int64, err error) {
	rd := &replayReader{br: bufio.NewReader(bytes.NewReader(data))}
	// Detectors validate the event contract with *streamerr.Error panics
	// (a live run can never violate it). A corrupt or adversarial trace
	// can, so convert contract violations — and any other panic a
	// consumer raises — into structured errors here, preserving the
	// original layer, kind and frame.
	defer func() {
		if p := recover(); p != nil {
			se := streamerr.FromPanic("trace", p)
			if se.Event < 0 {
				se.Event = events
			}
			if se.Offset < 0 {
				se.Offset = rd.off
			}
			err = se
		}
	}()
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(rd.br, head); err != nil {
		return 0, streamerr.Errorf("trace", streamerr.KindTruncated,
			"reading header: %v", err)
	}
	var v2 bool
	switch string(head) {
	case Magic:
		v2 = true
	case MagicV1:
		v2 = false
	default:
		return 0, streamerr.New("trace", streamerr.KindMalformed, "bad magic header")
	}

	frames := make(map[cilk.FrameID]*cilk.Frame)
	reducers := make(map[int]*cilk.Reducer)
	var stack []*cilk.Frame

	// truncated reports a mid-record read failure: reading from memory
	// fails only at the end of data, a truncation at the current event.
	truncated := func() error {
		return streamerr.Errorf("trace", streamerr.KindTruncated,
			"stream truncated mid-event").WithEvent(events).WithOffset(rd.off)
	}
	u := func() (uint64, error) {
		start := rd.off
		v, err := binary.ReadUvarint(rd)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return 0, truncated()
		case err != nil:
			// binary.ReadUvarint's only other error: ten bytes that
			// cannot be a 64-bit varint, whatever follows them.
			return 0, streamerr.Errorf("trace", streamerr.KindMalformed,
				"varint overflows 64 bits").WithEvent(events).WithOffset(start)
		}
		return v, nil
	}
	str := func() (string, error) {
		n, err := u()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", streamerr.Errorf("trace", streamerr.KindMalformed,
				"label of %d bytes", n).WithEvent(events).WithOffset(rd.off)
		}
		b := make([]byte, n)
		if err := rd.full(b); err != nil {
			return "", truncated()
		}
		return string(b), nil
	}
	frameOf := func(id uint64) (*cilk.Frame, error) {
		if id > math.MaxInt32 {
			return nil, frameIDOverflow(id, events, rd.off)
		}
		f, ok := frames[cilk.FrameID(id)]
		if !ok {
			return nil, streamerr.Errorf("trace", streamerr.KindOrder,
				"unknown frame %d", id).WithEvent(events).WithFrame(int64(id)).WithOffset(rd.off)
		}
		return f, nil
	}
	reducerOf := func(idx uint64) *cilk.Reducer {
		r, ok := reducers[int(idx)]
		if !ok {
			r = cilk.SyntheticReducer(fmt.Sprintf("reducer#%d", idx), int(idx))
			reducers[int(idx)] = r
		}
		return r
	}

	for {
		crcAtRecord := rd.crc
		offAtRecord := rd.off
		kb, err := rd.ReadByte()
		if err == io.EOF {
			if v2 {
				return events, streamerr.Errorf("trace", streamerr.KindTruncated,
					"stream ended without footer").WithEvent(events).WithOffset(rd.off)
			}
			return events, nil
		}
		if err != nil {
			return events, err
		}
		if v2 && kb == footerKind {
			var foot [footerLen - 1]byte
			if _, err := io.ReadFull(rd.br, foot[:]); err != nil {
				return events, streamerr.Errorf("trace", streamerr.KindTruncated,
					"stream ended inside footer").WithEvent(events).WithOffset(offAtRecord)
			}
			wantCRC := binary.LittleEndian.Uint32(foot[0:4])
			wantN := binary.LittleEndian.Uint64(foot[4:12])
			if wantCRC != crcAtRecord {
				return events, streamerr.Errorf("trace", streamerr.KindCorrupt,
					"CRC mismatch: footer %08x, stream %08x", wantCRC, crcAtRecord).
					WithEvent(events).WithOffset(offAtRecord)
			}
			if wantN != uint64(events) {
				return events, streamerr.Errorf("trace", streamerr.KindCorrupt,
					"footer records %d events, stream replayed %d", wantN, events).
					WithEvent(events).WithOffset(offAtRecord)
			}
			if _, err := rd.br.ReadByte(); err != io.EOF {
				return events, streamerr.New("trace", streamerr.KindCorrupt,
					"trailing data after footer").WithEvent(events).WithOffset(offAtRecord + footerLen)
			}
			return events, nil
		}
		k := kind(kb)
		if k == 0 || k >= evMax {
			return events, streamerr.Errorf("trace", streamerr.KindMalformed,
				"bad event kind %d", kb).WithEvent(events).WithOffset(offAtRecord)
		}
		events++
		switch k {
		case evProgramStart:
			// The root frame arrives with the first FrameEnter; the
			// executor emits ProgramStart immediately before it.
		case evProgramEnd:
			if len(stack) > 0 {
				hooks.ProgramEnd(stack[0])
			}
		case evFrameEnterSpawn, evFrameEnterCall:
			id, err := u()
			if err != nil {
				return events, err
			}
			if id > math.MaxInt32 {
				return events, frameIDOverflow(id, events, rd.off)
			}
			label, err := str()
			if err != nil {
				return events, err
			}
			f := &cilk.Frame{ID: cilk.FrameID(id), Label: label, Spawned: k == evFrameEnterSpawn}
			if len(stack) > 0 {
				f.Parent = stack[len(stack)-1]
				f.Depth = f.Parent.Depth + 1
			}
			frames[f.ID] = f
			stack = append(stack, f)
			if len(stack) == 1 {
				hooks.ProgramStart(f)
			}
			hooks.FrameEnter(f)
		case evFrameReturn:
			gid, err := u()
			if err != nil {
				return events, err
			}
			fid, err := u()
			if err != nil {
				return events, err
			}
			g, err := frameOf(gid)
			if err != nil {
				return events, err
			}
			f, err := frameOf(fid)
			if err != nil {
				return events, err
			}
			if len(stack) == 0 || stack[len(stack)-1] != g {
				return events, streamerr.Errorf("trace", streamerr.KindOrder,
					"return of %d does not match frame stack", gid).
					WithEvent(events).WithFrame(int64(gid)).WithOffset(offAtRecord)
			}
			stack = stack[:len(stack)-1]
			hooks.FrameReturn(g, f)
		case evSync:
			id, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			hooks.Sync(f)
		case evStolen:
			id, err := u()
			if err != nil {
				return events, err
			}
			vid, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			hooks.ContinuationStolen(f, cilk.ViewID(vid))
		case evReduceStart:
			id, err := u()
			if err != nil {
				return events, err
			}
			keep, err := u()
			if err != nil {
				return events, err
			}
			die, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			hooks.ReduceStart(f, cilk.ViewID(keep), cilk.ViewID(die))
		case evReduceEnd:
			id, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			hooks.ReduceEnd(f)
		case evVABegin, evVAEnd:
			id, err := u()
			if err != nil {
				return events, err
			}
			op, err := u()
			if err != nil {
				return events, err
			}
			ridx, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			if op > uint64(cilk.OpReduce) {
				return events, streamerr.Errorf("trace", streamerr.KindMalformed,
					"bad view op %d", op).WithEvent(events).WithOffset(offAtRecord)
			}
			if k == evVABegin {
				hooks.ViewAwareBegin(f, cilk.ViewOp(op), reducerOf(ridx))
			} else {
				hooks.ViewAwareEnd(f, cilk.ViewOp(op), reducerOf(ridx))
			}
		case evReducerCreate:
			id, err := u()
			if err != nil {
				return events, err
			}
			ridx, err := u()
			if err != nil {
				return events, err
			}
			name, err := str()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			r := cilk.SyntheticReducer(name, int(ridx))
			reducers[int(ridx)] = r
			hooks.ReducerCreate(f, r)
		case evReducerRead:
			id, err := u()
			if err != nil {
				return events, err
			}
			ridx, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			hooks.ReducerRead(f, reducerOf(ridx))
		case evLoad, evStore:
			id, err := u()
			if err != nil {
				return events, err
			}
			a, err := u()
			if err != nil {
				return events, err
			}
			f, err := frameOf(id)
			if err != nil {
				return events, err
			}
			if k == evLoad {
				hooks.Load(f, mem.Addr(a))
			} else {
				hooks.Store(f, mem.Addr(a))
			}
		}
	}
}
