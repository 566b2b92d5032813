// Package trace records the cilk instrumentation event stream to a
// compact binary format and replays it into any cilk.Hooks consumer —
// decoupling program execution from race analysis. A program (plus steal
// specification) is executed once under a trace Writer; the resulting
// trace can then be replayed into Peer-Set, SP-bags, SP+, the dag
// recorder, or all of them, without re-running the program. A replay
// produces bit-identical detector behaviour because the detectors consume
// nothing but this event stream.
//
// Format (version 2): the magic header "CILKTRACE2\n", then one record per
// event — a kind byte followed by kind-specific unsigned varints (frame
// IDs, view IDs, addresses, reducer indices) and, for frame-enter events,
// a length-prefixed label — and finally a 13-byte footer written by Close:
// the footer kind byte, the CRC32C (Castagnoli) of all event bytes, and
// the event count, both little-endian. Typical traces run 2–4 bytes per
// memory access. The footer lets replay distinguish a clean end of stream
// from a truncation ("ended at event N") and from corruption ("CRC
// mismatch at byte offset B"). Version 1 traces ("CILKTRACE1\n", no
// footer) still replay; for them any EOF at a record boundary is a clean
// end, exactly as before.
//
// Every replay failure — bad header, undecodable record, truncation,
// integrity failure, a detector contract violation, or a panicking
// consumer — surfaces as a *streamerr.Error carrying the event index,
// byte offset and (for contract violations) the offending frame.
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/streamerr"
)

// Magic identifies a current-version (v2, footered) trace stream.
const Magic = "CILKTRACE2\n"

// MagicV1 identifies a legacy v1 stream: no integrity footer, any EOF at
// a record boundary is a clean end. ReplayAll accepts both; the Writer only
// produces v2.
const MagicV1 = "CILKTRACE1\n"

// kind encodes the event type.
type kind byte

const (
	evProgramStart kind = iota + 1
	evProgramEnd
	evFrameEnterSpawn
	evFrameEnterCall
	evFrameReturn
	evSync
	evStolen
	evReduceStart
	evReduceEnd
	evVABegin
	evVAEnd
	evReducerCreate
	evReducerRead
	evLoad
	evStore
	evMax
)

// footerKind marks the v2 integrity footer; it sits far outside the event
// kind space so a v1 reader (or a corrupted kind byte) cannot mistake it
// for an event.
const footerKind byte = 0x7E

// footerLen is the footer's full size: kind byte + uint32 CRC32C of all
// event bytes + uint64 event count, both little-endian.
const footerLen = 1 + 4 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is the strong content identity of a trace: the SHA-256 of every
// byte of the encoded stream, header and footer included. Two streams with
// equal digests replay identically under every detector, which is what
// makes the digest usable as a result-cache key (the CRC32C footer guards
// against accidental corruption; the digest addresses content). The Writer
// computes it incrementally alongside the CRC; DigestOf computes it for an
// already-encoded stream and produces the same value.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex, the form used in cache keys
// and service responses.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// DigestOf consumes r to EOF and returns the digest of its bytes. It does
// not validate the stream; pair it with ReplayAll or VerifyIntegrity when
// integrity matters.
func DigestOf(r io.Reader) (Digest, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return Digest{}, err
	}
	var d Digest
	h.Sum(d[:0])
	return d, nil
}

// Writer implements cilk.Hooks and streams events to an io.Writer.
// Check Err (or use Close) after the run: hook signatures cannot return
// errors, so write failures are latched. Close appends the v2 integrity
// footer; a stream that was never Closed replays as truncated.
type Writer struct {
	w      *bufio.Writer
	err    error
	buf    [4 * binary.MaxVarintLen64]byte
	n      int64 // events written
	crc    uint32
	sha    hash.Hash
	closed bool
}

// NewWriter starts a trace on w, emitting the magic header.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriter(w), sha: sha256.New()}
	tw.sha.Write([]byte(Magic))
	_, tw.err = tw.w.WriteString(Magic)
	return tw
}

// Err returns the first write error, if any.
func (t *Writer) Err() error { return t.err }

// Events reports how many events were recorded.
func (t *Writer) Events() int64 { return t.n }

// ErrDigestBeforeClose is returned by Digest when the stream has not been
// Closed: before the footer is written (and hashed) the incremental digest
// can never equal DigestOf over the encoded file, so handing it out would
// let a caller cache results under a key no upload will ever match.
var ErrDigestBeforeClose = errors.New("trace: Digest before Close: digest does not cover the footer")

// Digest returns the SHA-256 content digest of the encoded stream —
// header, events and footer. It errors until a successful Close: only
// then does the digest cover the footer and therefore equal DigestOf over
// the file, which is what makes it safe to use as a result-cache key. A
// failed Close (or a latched write error) also surfaces here, so a
// partially-written stream cannot be cached either.
func (t *Writer) Digest() (Digest, error) {
	if !t.closed {
		return Digest{}, ErrDigestBeforeClose
	}
	if t.err != nil {
		return Digest{}, t.err
	}
	var d Digest
	t.sha.Sum(d[:0])
	return d, nil
}

// Close writes the integrity footer, flushes the stream and returns any
// latched error. Only the first Close writes the footer, and the error
// result is idempotent: a failed Close (or a write failure during the run)
// latches its error, and every subsequent Close returns that same error
// rather than nil — so deferred double-closes in upload/record paths can
// never mask a failure.
func (t *Writer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	var foot [footerLen]byte
	foot[0] = footerKind
	binary.LittleEndian.PutUint32(foot[1:5], t.crc)
	binary.LittleEndian.PutUint64(foot[5:13], uint64(t.n))
	t.sha.Write(foot[:])
	if _, t.err = t.w.Write(foot[:]); t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// write sends event bytes downstream, folding them into the running CRC
// and content digest.
func (t *Writer) write(p []byte) {
	if t.err != nil {
		return
	}
	t.crc = crc32.Update(t.crc, castagnoli, p)
	t.sha.Write(p)
	_, t.err = t.w.Write(p)
}

func (t *Writer) emit(k kind, args ...uint64) {
	if t.err != nil {
		return
	}
	t.n++
	t.buf[0] = byte(k)
	n := 1
	for _, a := range args {
		n += binary.PutUvarint(t.buf[n:], a)
	}
	t.write(t.buf[:n])
}

func (t *Writer) emitString(s string) {
	if t.err != nil {
		return
	}
	n := binary.PutUvarint(t.buf[:], uint64(len(s)))
	t.write(t.buf[:n])
	// Route the payload through write() too: it is the single place that
	// folds bytes into the CRC32C and content digest, so the two can never
	// drift apart (Writer.Digest must equal DigestOf over the file).
	t.write([]byte(s))
}

// ProgramStart implements cilk.Hooks.
func (t *Writer) ProgramStart(f *cilk.Frame) { t.emit(evProgramStart) }

// ProgramEnd implements cilk.Hooks.
func (t *Writer) ProgramEnd(f *cilk.Frame) { t.emit(evProgramEnd) }

// FrameEnter implements cilk.Hooks.
func (t *Writer) FrameEnter(f *cilk.Frame) {
	k := evFrameEnterCall
	if f.Spawned {
		k = evFrameEnterSpawn
	}
	t.emit(k, uint64(f.ID))
	t.emitString(f.Label)
}

// FrameReturn implements cilk.Hooks.
func (t *Writer) FrameReturn(g, f *cilk.Frame) { t.emit(evFrameReturn, uint64(g.ID), uint64(f.ID)) }

// Sync implements cilk.Hooks.
func (t *Writer) Sync(f *cilk.Frame) { t.emit(evSync, uint64(f.ID)) }

// ContinuationStolen implements cilk.Hooks.
func (t *Writer) ContinuationStolen(f *cilk.Frame, vid cilk.ViewID) {
	t.emit(evStolen, uint64(f.ID), uint64(vid))
}

// ReduceStart implements cilk.Hooks.
func (t *Writer) ReduceStart(f *cilk.Frame, keep, die cilk.ViewID) {
	t.emit(evReduceStart, uint64(f.ID), uint64(keep), uint64(die))
}

// ReduceEnd implements cilk.Hooks.
func (t *Writer) ReduceEnd(f *cilk.Frame) { t.emit(evReduceEnd, uint64(f.ID)) }

// ViewAwareBegin implements cilk.Hooks.
func (t *Writer) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	t.emit(evVABegin, uint64(f.ID), uint64(op), uint64(r.Index()))
}

// ViewAwareEnd implements cilk.Hooks.
func (t *Writer) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	t.emit(evVAEnd, uint64(f.ID), uint64(op), uint64(r.Index()))
}

// ReducerCreate implements cilk.Hooks.
func (t *Writer) ReducerCreate(f *cilk.Frame, r *cilk.Reducer) {
	t.emit(evReducerCreate, uint64(f.ID), uint64(r.Index()))
	t.emitString(r.Name)
}

// ReducerRead implements cilk.Hooks.
func (t *Writer) ReducerRead(f *cilk.Frame, r *cilk.Reducer) {
	t.emit(evReducerRead, uint64(f.ID), uint64(r.Index()))
}

// Load implements cilk.Hooks.
func (t *Writer) Load(f *cilk.Frame, a mem.Addr) { t.emit(evLoad, uint64(f.ID), uint64(a)) }

// Store implements cilk.Hooks.
func (t *Writer) Store(f *cilk.Frame, a mem.Addr) { t.emit(evStore, uint64(f.ID), uint64(a)) }

var _ cilk.Hooks = (*Writer)(nil)

// frameIDOverflow rejects an encoded frame ID that does not fit
// cilk.FrameID. Both decoders report it with this one error, so a
// crafted ID fails identically instead of truncating onto another frame.
func frameIDOverflow(id uint64, event, off int64) *streamerr.Error {
	return streamerr.Errorf("trace", streamerr.KindMalformed,
		"frame ID %d overflows int32", id).WithEvent(event).WithOffset(off)
}
