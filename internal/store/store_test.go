package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

func open(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestVerdictRoundTrip(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	rec := &Verdict{
		Key:      "abc|sp+|all",
		Digest:   "abc",
		Detector: "sp+",
		Spec:     "all",
		Clean:    false,
		Report:   []byte(`{"schema":3,"races":["r1"]}`),
	}
	if err := s.PutVerdict(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetVerdict(rec.Key)
	if err != nil || !ok {
		t.Fatalf("GetVerdict: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Report, rec.Report) || got.Detector != "sp+" || got.Clean {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
	if _, ok, _ := s.GetVerdict("no|such|key"); ok {
		t.Fatal("absent key must miss")
	}
	st := s.Stats()
	if st.VerdictWrites != 1 || st.VerdictHits != 1 || st.VerdictMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// A verdict survives a store reopen byte-identically — the core
// durability contract.
func TestVerdictSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	rec := &Verdict{Key: "k|d|s", Digest: "k", Detector: "d", Report: []byte(`{"x":1}`)}
	if err := s.PutVerdict(rec); err != nil {
		t.Fatal(err)
	}
	s2, r := open(t, dir, Options{})
	if r.VerdictsScanned != 1 || r.VerdictsQuarantined != 0 {
		t.Fatalf("recovery scan: %+v", r)
	}
	got, ok, err := s2.GetVerdict("k|d|s")
	if err != nil || !ok {
		t.Fatalf("reopen GetVerdict: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Report, rec.Report) {
		t.Fatalf("report bytes drifted: %q vs %q", got.Report, rec.Report)
	}
}

// Corrupting any byte of a stored verdict record makes the read
// quarantine it and report a miss — never an error, never bad data.
func TestCorruptVerdictQuarantinedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	rec := &Verdict{Key: "k|d|s", Digest: "k", Detector: "d", Report: []byte(`{"x":1}`)}
	if err := s.PutVerdict(rec); err != nil {
		t.Fatal(err)
	}
	path := s.verdictPath("k|d|s")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(verdictMagic), len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x5A
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.GetVerdict("k|d|s")
		if err != nil {
			t.Fatalf("flip at %d: corrupt record must not error: %v", at, err)
		}
		if ok {
			t.Fatalf("flip at %d: corrupt record must miss, got %+v", at, got)
		}
		// The corrupt file moved to quarantine; re-put for the next case.
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("flip at %d: corrupt record must leave the hot path", at)
		}
		if err := s.PutVerdict(rec); err != nil {
			t.Fatal(err)
		}
	}
	if q := s.Stats().Quarantined; q != 4 {
		t.Fatalf("quarantined = %d, want 4", q)
	}
	names, _ := listFiles(filepath.Join(dir, "quarantine"))
	if len(names) != 4 {
		t.Fatalf("quarantine dir holds %d files, want 4", len(names))
	}
}

// The recovery scan quarantines corrupt verdicts and removes orphan temp
// files.
func TestRecoveryScanQuarantinesAndCleans(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	good := &Verdict{Key: "good|d|", Digest: "good", Detector: "d", Report: []byte(`{}`)}
	bad := &Verdict{Key: "bad|d|", Digest: "bad", Detector: "d", Report: []byte(`{}`)}
	if err := s.PutVerdict(good); err != nil {
		t.Fatal(err)
	}
	if err := s.PutVerdict(bad); err != nil {
		t.Fatal(err)
	}
	// Tear the bad record and plant an orphan temp file.
	badPath := s.verdictPath("bad|d|")
	data, _ := os.ReadFile(badPath)
	if err := os.WriteFile(badPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp", "orphan.123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, r := open(t, dir, Options{})
	if r.TempFilesRemoved != 1 {
		t.Fatalf("temp files removed = %d, want 1", r.TempFilesRemoved)
	}
	if r.VerdictsScanned != 2 || r.VerdictsQuarantined != 1 {
		t.Fatalf("verdict scan: %+v", r)
	}
	if _, ok, _ := s2.GetVerdict("good|d|"); !ok {
		t.Fatal("good verdict must survive recovery")
	}
	if _, ok, _ := s2.GetVerdict("bad|d|"); ok {
		t.Fatal("torn verdict must be gone after recovery")
	}
	if !strings.Contains(r.String(), "1/2 verdicts quarantined") {
		t.Fatalf("banner: %s", r.String())
	}
}

func TestPartialUploadLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	content := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	dg := digestOf(content)

	// Chunked append with an offset-conflict in the middle.
	off, err := s.AppendPartial(dg, 0, bytes.NewReader(content[:1000]))
	if err != nil || off != 1000 {
		t.Fatalf("chunk 1: off=%d err=%v", off, err)
	}
	if got := s.PartialOffset(dg); got != 1000 {
		t.Fatalf("PartialOffset = %d", got)
	}
	// Wrong offset: rejected, server truth returned.
	off, err = s.AppendPartial(dg, 500, bytes.NewReader(content[500:1000]))
	var oe *OffsetError
	if !errors.As(err, &oe) || oe.Want != 1000 || off != 1000 {
		t.Fatalf("offset conflict: off=%d err=%v", off, err)
	}
	// Resume at the server's offset, then finish.
	if _, err = s.AppendPartial(dg, 1000, bytes.NewReader(content[1000:])); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPartial(dg); err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace(dg) {
		t.Fatal("committed trace must exist")
	}
	rc, size, err := s.OpenTrace(dg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, _ := io.ReadAll(rc)
	if size != int64(len(content)) || !bytes.Equal(got, content) {
		t.Fatalf("stored trace differs: %d bytes vs %d", size, len(content))
	}
	if s.PartialOffset(dg) != 0 {
		t.Fatal("partial must be consumed by commit")
	}
}

// A partial upload survives a store reopen and resumes where it left
// off; a partial whose trace was finalized is GCed by recovery.
func TestPartialSurvivesReopenAndGC(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	content := bytes.Repeat([]byte{7}, 10000)
	dg := digestOf(content)
	if _, err := s.AppendPartial(dg, 0, bytes.NewReader(content[:4000])); err != nil {
		t.Fatal(err)
	}

	s2, r := open(t, dir, Options{})
	if r.PartialsKept != 1 || r.PartialsRemoved != 0 {
		t.Fatalf("recovery: %+v", r)
	}
	if got := s2.PartialOffset(dg); got != 4000 {
		t.Fatalf("resume offset after reopen = %d, want 4000", got)
	}
	if _, err := s2.AppendPartial(dg, 4000, bytes.NewReader(content[4000:])); err != nil {
		t.Fatal(err)
	}
	if err := s2.CommitPartial(dg); err != nil {
		t.Fatal(err)
	}

	// Plant a fresh partial for the now-final digest: recovery GCs it.
	if err := os.WriteFile(filepath.Join(dir, "partial", dg+".partial"), []byte("left"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, r3 := open(t, dir, Options{})
	if r3.PartialsRemoved != 1 || r3.PartialsKept != 0 {
		t.Fatalf("GC recovery: %+v", r3)
	}
}

// Committing an upload whose content does not hash to the claimed digest
// quarantines it.
func TestCommitDigestMismatchQuarantines(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	content := []byte("not what was claimed")
	claimed := digestOf([]byte("something else"))
	if _, err := s.AppendPartial(claimed, 0, bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	err := s.CommitPartial(claimed)
	if err == nil {
		t.Fatal("commit with wrong content must fail")
	}
	if s.HasTrace(claimed) {
		t.Fatal("mismatched content must not finalize")
	}
	if s.Stats().Quarantined != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// The trace verifier gate: commit rejects content the verifier refuses.
func TestCommitRunsVerifier(t *testing.T) {
	refuse := errors.New("not a trace")
	s, _ := open(t, t.TempDir(), Options{
		VerifyTrace: func(r io.Reader) error {
			io.Copy(io.Discard, r)
			return refuse
		},
	})
	content := []byte("garbage bytes")
	dg := digestOf(content)
	if _, err := s.AppendPartial(dg, 0, bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPartial(dg); !errors.Is(err, refuse) {
		t.Fatalf("verifier verdict must surface, got %v", err)
	}
	if s.HasTrace(dg) {
		t.Fatal("refused content must not finalize")
	}
}

func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, rec := open(t, dir, Options{})
	if len(rec.PendingJobs) != 0 {
		t.Fatalf("fresh store has pending jobs: %+v", rec.PendingJobs)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.JournalJob(JobRecord{ID: "j1", Prog: "fig1", State: JobQueued}))
	must(s.JournalJob(JobRecord{ID: "j2", Prog: "dedup", Scale: "test", State: JobQueued}))
	must(s.JournalJob(JobRecord{ID: "j1", Prog: "fig1", State: JobDone}))

	// j2 never finished; a reopen reports it pending.
	_, rec2 := open(t, dir, Options{})
	if len(rec2.PendingJobs) != 1 || rec2.PendingJobs[0].ID != "j2" || rec2.PendingJobs[0].Scale != "test" {
		t.Fatalf("pending after reopen: %+v", rec2.PendingJobs)
	}
}

// A torn trailing journal line (crash mid-append) is dropped, not fatal.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	if err := s.JournalJob(JobRecord{ID: "j1", Prog: "fig1", State: JobQueued}); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "journal", "jobs.jsonl")
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"j2","prog":"ferret","sta`) // torn mid-record
	f.Close()

	_, rec := open(t, dir, Options{})
	if rec.JournalTornLines != 1 {
		t.Fatalf("torn lines = %d, want 1", rec.JournalTornLines)
	}
	if len(rec.PendingJobs) != 1 || rec.PendingJobs[0].ID != "j1" {
		t.Fatalf("pending: %+v", rec.PendingJobs)
	}
}

// An injected disk error on a verdict write fails the Put but leaves the
// store consistent: no torn final file, the old value (if any) intact.
func TestInjectedWriteErrorLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	old := &Verdict{Key: "k|d|", Digest: "k", Detector: "d", Report: []byte(`{"v":"old"}`)}
	fresh := &Verdict{Key: "k|d|", Digest: "k", Detector: "d", Report: []byte(`{"v":"new"}`)}

	for _, op := range []string{OpTempCreate, OpTempWrite, OpTempSync, OpRename} {
		s, _ := open(t, dir, Options{})
		if err := s.PutVerdict(old); err != nil {
			t.Fatal(err)
		}
		// Arm the injector only after Open: the open-time journal
		// compaction flows through the same seam.
		inj := &faults.Disk{Op: op, FailAt: 0, Err: faults.ErrDisk}
		armed := false
		s2, _ := open(t, dir, Options{Inject: func(op, path string) error {
			if !armed {
				return nil
			}
			return inj.Check(op, path)
		}})
		armed = true
		if err := s2.PutVerdict(fresh); err == nil {
			t.Fatalf("op %s: injected failure must surface", op)
		}
		if !inj.Injected() {
			t.Fatalf("op %s: fault never fired", op)
		}
		got, ok, err := s2.GetVerdict("k|d|")
		if err != nil || !ok || !bytes.Equal(got.Report, old.Report) {
			t.Fatalf("op %s: old value must survive failed overwrite: ok=%v err=%v got=%s",
				op, ok, err, got.Report)
		}
	}
}

func TestValidDigest(t *testing.T) {
	good := digestOf([]byte("x"))
	for _, tc := range []struct {
		d  string
		ok bool
	}{
		{good, true},
		{strings.ToUpper(good), false},
		{good[:63], false},
		{good + "a", false},
		{strings.Replace(good, good[:1], "/", 1), false},
		{"../../../../etc/passwd", false},
		{"", false},
	} {
		if ValidDigest(tc.d) != tc.ok {
			t.Errorf("ValidDigest(%q) = %v, want %v", tc.d, !tc.ok, tc.ok)
		}
	}
}
