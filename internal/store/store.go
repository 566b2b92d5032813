// Package store is the durable half of raderd: a disk-backed,
// content-addressed trace and verdict store with crash-at-any-point
// recovery. It exists so that detection never has to be redone after a
// failure — the robustness analogue of the prefix-sharing sweep's "never
// redo work you can recover": a verdict computed once for a (digest,
// detector, spec) key is served byte-identical forever, across process
// restarts, torn writes and corrupted files.
//
// Durability discipline:
//
//   - Every finalized file is written atomically: bytes go to a temp file
//     under tmp/, are fsynced, then renamed into a digest-sharded layout
//     (traces/<aa>/<digest>.trace, verdicts/<aa>/<key-digest>.verdict),
//     and the containing directory is fsynced. A crash leaves either the
//     old state or the new state, never a torn final file.
//   - Every verdict record carries its own CRC32C; traces carry the v2
//     CILKTRACE footer. Reads verify before trusting.
//   - Corrupt or torn files are never fatal: they are moved to
//     quarantine/ and the read reports a miss, so the caller re-derives
//     the verdict (the store's contract is cache-like: losing an entry
//     costs one recomputation, never correctness).
//   - Resumable uploads accumulate in partial/<digest>.partial and
//     survive restarts; commit verifies the SHA-256 content digest and
//     the trace footer before the atomic rename.
//   - Sweep jobs are journaled (journal/jobs.jsonl, one fsynced JSON line
//     per transition); Open replays the journal and reports
//     persisted-but-unfinished jobs for the service to re-enqueue.
//
// Open runs a recovery scan: orphan temp files are deleted, undecodable
// verdict and trace files are quarantined, partial uploads whose final
// trace already exists are garbage-collected, and the journal is
// compacted. All store I/O flows through an optional fault-injection
// seam (Options.Inject) so the chaos suite can prove the recovery
// contract at every injection point.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Injection-seam operation names, passed to Options.Inject before every
// durable side effect. The chaos suite enumerates these by a counting
// pass and then fails each one in turn.
const (
	OpTempCreate   = "temp-create"
	OpTempWrite    = "temp-write"
	OpTempSync     = "temp-sync"
	OpRename       = "rename"
	OpDirSync      = "dir-sync"
	OpPartialOpen  = "partial-open"
	OpPartialWrite = "partial-write"
	OpPartialSync  = "partial-sync"
	OpJournalWrite = "journal-write"
	OpJournalSync  = "journal-sync"
)

// Options configures Open.
type Options struct {
	// Inject, when non-nil, is consulted before every durable side
	// effect; a non-nil return aborts the operation with that error.
	// faults.Disk implements this seam for the chaos suite.
	Inject func(op, path string) error
	// VerifyTrace, when non-nil, is the content integrity check applied
	// to finalized traces during the recovery scan and to completed
	// resumable uploads at commit (the service wires in
	// trace.VerifyIntegrity; the store itself is format-agnostic — it
	// addresses bytes). It must cost O(1) memory on large inputs.
	VerifyTrace func(io.Reader) error
}

// Stats are the store's monotonic operation counters, exported by the
// service as metrics.
type Stats struct {
	VerdictWrites uint64 // verdict records durably written
	VerdictHits   uint64 // verified verdict reads
	VerdictMisses uint64 // absent (or quarantined-on-read) verdicts
	TraceWrites   uint64 // traces committed (direct or via partial)
	SpansWrites   uint64 // span-tree records durably written
	Quarantined   uint64 // files moved to quarantine (scan + read paths)
	IngestBytes   uint64 // bytes appended to partial uploads
}

// Store is a content-addressed trace + verdict store rooted at one
// directory. Methods are safe for concurrent use.
type Store struct {
	dir         string
	inject      func(op, path string) error
	verifyTrace func(io.Reader) error

	journal *journal

	quarantineSeq atomic.Uint64

	verdictWrites atomic.Uint64
	verdictHits   atomic.Uint64
	verdictMisses atomic.Uint64
	traceWrites   atomic.Uint64
	spansWrites   atomic.Uint64
	quarantined   atomic.Uint64
	ingestBytes   atomic.Uint64

	// partialMu serializes appends per digest (a resumable upload is a
	// single logical stream; concurrent appenders would interleave).
	partialMu sync.Mutex
}

// Open initializes (or adopts) a store rooted at dir, runs the recovery
// scan, and returns the recovery report. A directory that has never held
// a store is created empty; a directory left behind by a crashed process
// is reconciled, never rejected.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	s := &Store{dir: dir, inject: opts.Inject, verifyTrace: opts.VerifyTrace}
	if s.inject == nil {
		s.inject = func(op, path string) error { return nil }
	}
	for _, sub := range []string{"tmp", "traces", "verdicts", "spans", "partial", "quarantine", "journal"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: creating layout: %w", err)
		}
	}
	rec, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	j, pending, torn, err := openJournal(s, filepath.Join(dir, "journal", "jobs.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	s.journal = j
	rec.PendingJobs = pending
	rec.JournalTornLines = torn
	return s, rec, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		VerdictWrites: s.verdictWrites.Load(),
		VerdictHits:   s.verdictHits.Load(),
		VerdictMisses: s.verdictMisses.Load(),
		TraceWrites:   s.traceWrites.Load(),
		SpansWrites:   s.spansWrites.Load(),
		Quarantined:   s.quarantined.Load(),
		IngestBytes:   s.ingestBytes.Load(),
	}
}

// ValidDigest reports whether d looks like a lowercase SHA-256 hex
// digest — the only identity the content-addressed paths accept (also a
// path-traversal guard: digests never contain separators).
func ValidDigest(d string) bool {
	if len(d) != sha256.Size*2 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// shard returns the two-hex-char shard directory for a digest-like key.
func shard(key string) string { return key[:2] }

func (s *Store) tracePath(digest string) string {
	return filepath.Join(s.dir, "traces", shard(digest), digest+".trace")
}

// verdictKeyDigest converts an arbitrary verdict key (digest|detector|spec)
// into the hex name its record file is stored under.
func verdictKeyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) verdictPath(key string) string {
	kd := verdictKeyDigest(key)
	return filepath.Join(s.dir, "verdicts", shard(kd), kd+".verdict")
}

func (s *Store) partialPath(digest string) string {
	return filepath.Join(s.dir, "partial", digest+".partial")
}

// writeAtomic writes data to path via the temp+fsync+rename+dirsync
// protocol. Every step passes the injection seam first.
func (s *Store) writeAtomic(path string, data []byte) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.inject(OpTempCreate, path); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), filepath.Base(path)+".*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil && !errors.Is(err, errAborted) {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := s.inject(OpTempWrite, tmpName); err != nil {
		return abort(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if err := s.inject(OpTempSync, tmpName); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	if err := s.inject(OpRename, path); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename into place: %w", err)
	}
	if err := s.inject(OpDirSync, filepath.Dir(path)); err != nil {
		return abort(err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// errAborted marks an injected abort: the deferred cleanup is skipped so
// the simulated crash leaves its debris on disk, exactly as a real kill
// would.
var errAborted = errors.New("store: operation aborted by fault injection")

func abort(cause error) error { return fmt.Errorf("%w: %w", errAborted, cause) }

// syncDir fsyncs a directory so a rename into it survives power loss.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// quarantine moves a corrupt or undecodable file out of the hot layout
// (never deleting evidence) and counts it. The destination name keeps
// the original base name plus a uniquifying sequence number.
func (s *Store) quarantine(path, reason string) {
	seq := s.quarantineSeq.Add(1)
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.%d", filepath.Base(path), seq))
	if err := os.Rename(path, dst); err != nil {
		// Renaming within one filesystem only fails if the source is
		// already gone; removing is the safe fallback.
		_ = os.Remove(path)
	}
	s.quarantined.Add(1)
	_ = reason // reasons surface via the recovery report; kept for symmetry
}

// ---- traces ----

// HasTrace reports whether a finalized trace for digest exists.
func (s *Store) HasTrace(digest string) bool {
	if !ValidDigest(digest) {
		return false
	}
	_, err := os.Stat(s.tracePath(digest))
	return err == nil
}

// OpenTrace opens a finalized trace for reading. The caller
// closes it. Returns os.ErrNotExist when the digest is not stored.
func (s *Store) OpenTrace(digest string) (io.ReadCloser, int64, error) {
	if !ValidDigest(digest) {
		return nil, 0, fmt.Errorf("store: %w: bad digest %q", os.ErrNotExist, digest)
	}
	f, err := os.Open(s.tracePath(digest))
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// ---- verdict records ----

// PutVerdict durably stores a verdict record under its cache key
// (digest|detector|spec). The record is checksummed on disk and the
// write is atomic.
func (s *Store) PutVerdict(rec *Verdict) error {
	data, err := rec.encode()
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.verdictPath(rec.Key), data); err != nil {
		return err
	}
	s.verdictWrites.Add(1)
	return nil
}

// GetVerdict loads and verifies the verdict stored under key. A missing
// record is (nil, false, nil). A torn or corrupt record is quarantined
// and reported as a miss — the caller recomputes and overwrites; losing
// a record never loses correctness.
func (s *Store) GetVerdict(key string) (*Verdict, bool, error) {
	path := s.verdictPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.verdictMisses.Add(1)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading verdict: %w", err)
	}
	rec, err := decodeVerdict(data)
	if err != nil {
		s.quarantine(path, err.Error())
		s.verdictMisses.Add(1)
		return nil, false, nil
	}
	if rec.Key != key {
		// A hash collision in the key digest, or a file renamed by hand:
		// either way this record answers a different question.
		s.quarantine(path, "key mismatch")
		s.verdictMisses.Add(1)
		return nil, false, nil
	}
	s.verdictHits.Add(1)
	return rec, true, nil
}

// ---- resumable partial uploads ----

// PartialOffset reports how many bytes of a resumable upload have been
// durably received (0 when none has started).
func (s *Store) PartialOffset(digest string) int64 {
	st, err := os.Stat(s.partialPath(digest))
	if err != nil {
		return 0
	}
	return st.Size()
}

// ErrOffsetMismatch is returned (wrapped) by AppendPartial when the
// client's claimed offset does not equal the bytes already received; the
// wrapping error's Offset is the server's truth to resume from.
var ErrOffsetMismatch = errors.New("store: upload offset mismatch")

// OffsetError carries the server-side offset for resume.
type OffsetError struct {
	Want int64 // bytes durably received; resume here
	Got  int64 // offset the client claimed
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("%v: have %d bytes, client claimed offset %d", ErrOffsetMismatch, e.Want, e.Got)
}

func (e *OffsetError) Unwrap() error { return ErrOffsetMismatch }

// AppendPartial appends one chunk of a resumable upload at the claimed
// offset, streaming r to disk (constant memory regardless of chunk or
// trace size). The chunk is fsynced before the new offset is reported,
// so a client may treat the returned offset as durable.
func (s *Store) AppendPartial(digest string, offset int64, r io.Reader) (int64, error) {
	if !ValidDigest(digest) {
		return 0, fmt.Errorf("store: bad digest %q", digest)
	}
	s.partialMu.Lock()
	defer s.partialMu.Unlock()
	path := s.partialPath(digest)
	if err := s.inject(OpPartialOpen, path); err != nil {
		return 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: partial: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: partial: %w", err)
	}
	have := st.Size()
	if offset != have {
		return have, &OffsetError{Want: have, Got: offset}
	}
	if err := s.inject(OpPartialWrite, path); err != nil {
		return have, err
	}
	if _, err := f.Seek(have, io.SeekStart); err != nil {
		return have, fmt.Errorf("store: partial seek: %w", err)
	}
	n, err := io.Copy(f, r)
	s.ingestBytes.Add(uint64(n))
	if err != nil {
		// The tail of this chunk may be torn. Truncate back to the last
		// durable offset so a resume restarts the chunk cleanly.
		_ = f.Truncate(have)
		return have, fmt.Errorf("store: partial write: %w", err)
	}
	if err := s.inject(OpPartialSync, path); err != nil {
		return have, err
	}
	if err := f.Sync(); err != nil {
		return have, fmt.Errorf("store: partial fsync: %w", err)
	}
	return have + n, nil
}

// CommitPartial verifies a completed resumable upload — the SHA-256 of
// every received byte must equal the claimed digest, and the store's
// VerifyTrace option (typically trace.VerifyIntegrity) must accept the
// content — then atomically finalizes it as the trace for digest. On
// verification failure the partial is quarantined: the upload was
// corrupt end to end and resuming it cannot help.
func (s *Store) CommitPartial(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("store: bad digest %q", digest)
	}
	s.partialMu.Lock()
	defer s.partialMu.Unlock()
	path := s.partialPath(digest)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: no partial upload for %s: %w", digest, err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("store: hashing partial: %w", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		s.quarantine(path, "commit digest mismatch")
		return fmt.Errorf("store: uploaded content hashes to %s, not the claimed %s", got, digest)
	}
	if s.verifyTrace != nil {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: verifying partial: %w", err)
		}
		verr := s.verifyTrace(f)
		f.Close()
		if verr != nil {
			s.quarantine(path, "integrity check failed")
			return fmt.Errorf("store: uploaded trace failed integrity check: %w", verr)
		}
	}
	final := s.tracePath(digest)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The partial is already fsynced chunk by chunk; finalizing is one
	// atomic rename plus directory sync.
	if err := s.inject(OpRename, final); err != nil {
		return abort(err)
	}
	if err := os.Rename(path, final); err != nil {
		return fmt.Errorf("store: finalizing upload: %w", err)
	}
	if err := s.inject(OpDirSync, filepath.Dir(final)); err != nil {
		return abort(err)
	}
	syncDir(filepath.Dir(final))
	s.traceWrites.Add(1)
	return nil
}

// ---- helpers shared with recovery ----

// listFiles returns the regular files under root (one or two levels
// deep), sorted for determinism.
func listFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(d.Name(), ".") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}
