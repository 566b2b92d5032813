package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/trace"
)

// openDurable starts a store-backed server rooted at dir. Unlike
// newTestServer it surfaces store errors (the point under test).
func openDurable(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StoreDir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// putChunk PUTs one chunk of a resumable upload and returns the decoded
// status (or error body text) plus the response.
func putChunk(t *testing.T, base, digest string, offset int64, complete bool, body []byte) (*http.Response, []byte) {
	t.Helper()
	url := fmt.Sprintf("%s/traces/%s?offset=%d", base, digest, offset)
	if complete {
		url += "&complete=1"
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// headTrace reads the resume state of an upload.
func headTrace(t *testing.T, base, digest string) (offset int64, complete bool) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodHead, base+"/traces/"+digest, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /traces/%s: %d", digest, resp.StatusCode)
	}
	fmt.Sscanf(resp.Header.Get("Upload-Offset"), "%d", &offset)
	complete = resp.Header.Get("Upload-Complete") == "true"
	return offset, complete
}

// A verdict computed before a restart must be served — byte-identical and
// marked cached — by the restarted daemon, with an empty RAM cache: the
// disk store is the source of truth, the LRU only a read-through layer.
func TestVerdictSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	raw := fixture(t, "fig1_v2.trace")

	_, ts1 := openDurable(t, dir, Config{Workers: 2})
	resp, body := postAnalyze(t, ts1.URL+"/analyze?detector=sp%2B", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	first := decodeAnalyze(t, body)
	if first.Cached {
		t.Fatal("first analysis cannot be cached")
	}
	ts1.Close()

	_, ts2 := openDurable(t, dir, Config{Workers: 2})
	resp2, body2 := postAnalyze(t, ts2.URL+"/analyze?detector=sp%2B", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("analyze after restart: %d %s", resp2.StatusCode, body2)
	}
	second := decodeAnalyze(t, body2)
	if !second.Cached {
		t.Fatal("restarted daemon must serve the stored verdict as a cache hit")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatalf("verdict not byte-identical across restart:\n%s\nvs\n%s", first.Report, second.Report)
	}
}

// An all-detectors verdict — including every seeded per-detector sub-verdict —
// survives a restart too.
func TestAllDetectorVerdictsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	raw := fixture(t, "fig1_v2.trace")

	_, ts1 := openDurable(t, dir, Config{Workers: 2})
	resp, body := postAnalyze(t, ts1.URL+"/analyze?detector=all", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze all: %d %s", resp.StatusCode, body)
	}
	ts1.Close()

	_, ts2 := openDurable(t, dir, Config{Workers: 2})
	// A single-detector request for the same digest must hit the seeded,
	// persisted sub-verdict without re-running anything.
	resp2, body2 := postAnalyze(t, ts2.URL+"/analyze?detector=sp%2B", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sub-verdict after restart: %d %s", resp2.StatusCode, body2)
	}
	if ar := decodeAnalyze(t, body2); !ar.Cached {
		t.Fatal("seeded sub-verdict must survive the restart as a cache hit")
	}
}

// A complete sweep verdict survives a restart: resubmitting the sweep on
// the restarted daemon returns the stored document immediately.
func TestSweepVerdictSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := openDurable(t, dir, Config{Workers: 2, SweepWorkers: 2})
	sr := submitSweepAndWait(t, ts1.URL, "fig1")
	ts1.Close()

	_, ts2 := openDurable(t, dir, Config{Workers: 2, SweepWorkers: 2})
	resp, err := http.Post(ts2.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep after restart should be a stored hit: %d %s", resp.StatusCode, body)
	}
	var sr2 SweepResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.State != stateDone || !bytes.Equal(sr2.Sweep, sr.Sweep) {
		t.Fatalf("restarted sweep verdict diverges: %+v", sr2)
	}
}

// submitSweepAndWait runs one sweep job to completion and returns the
// final poll response.
func submitSweepAndWait(t *testing.T, base, prog string) SweepResponse {
	t.Helper()
	resp, err := http.Post(base+"/sweep?prog="+prog, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sr.State != stateDone && sr.State != stateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in state %q", sr.State)
		}
		time.Sleep(5 * time.Millisecond)
		pr, err := http.Get(base + "/sweep/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := io.ReadAll(pr.Body)
		pr.Body.Close()
		if err := json.Unmarshal(pb, &sr); err != nil {
			t.Fatalf("poll decode: %v (%s)", err, pb)
		}
	}
	if sr.State != stateDone {
		t.Fatalf("sweep failed: %s", sr.Error)
	}
	return sr
}

// The full resumable-ingest contract: chunked PUTs with durable offsets,
// HEAD resume, offset-conflict recovery, commit, idempotent re-upload,
// and analyze-by-digest parity with a local replay.
func TestResumableIngestAndAnalyzeByDigest(t *testing.T) {
	dir := t.TempDir()
	_, ts := openDurable(t, dir, Config{Workers: 2})
	raw := fixture(t, "fig1_v2.trace")
	dg, _ := trace.DigestOf(bytes.NewReader(raw))
	digest := dg.String()

	// Analyze-by-digest before upload: 404.
	resp, body := postAnalyze(t, ts.URL+"/analyze?digest="+digest, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("analyze of unknown digest: %d %s", resp.StatusCode, body)
	}

	half := len(raw) / 2
	resp, body = putChunk(t, ts.URL, digest, 0, false, raw[:half])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 1: %d %s", resp.StatusCode, body)
	}
	if off, complete := headTrace(t, ts.URL, digest); off != int64(half) || complete {
		t.Fatalf("after chunk 1: offset %d complete %v, want %d false", off, complete, half)
	}

	// A stale offset (a client retrying a chunk the server already has)
	// conflicts with the truth in Upload-Offset.
	resp, body = putChunk(t, ts.URL, digest, 0, false, raw[:half])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale chunk: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Upload-Offset"); got != fmt.Sprint(half) {
		t.Fatalf("conflict Upload-Offset %q, want %d", got, half)
	}

	resp, body = putChunk(t, ts.URL, digest, int64(half), true, raw[half:])
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final chunk: %d %s", resp.StatusCode, body)
	}
	var st TraceStatusResponse
	if err := json.Unmarshal(body, &st); err != nil || !st.Complete {
		t.Fatalf("commit response: %s (err %v)", body, err)
	}

	// Re-uploading a stored trace is an idempotent no-op.
	resp, body = putChunk(t, ts.URL, digest, 0, true, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-upload: %d %s", resp.StatusCode, body)
	}

	// Analyze by reference; the verdict must equal a local replay.
	resp, body = postAnalyze(t, ts.URL+"/analyze?digest="+digest+"&detector=sp%2B", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze by digest: %d %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	det, hooks, err := rader.NewDetector(rader.SPPlus)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReplayAll(raw, nil, nil, hooks)
	if err != nil {
		t.Fatal(err)
	}
	local, err := report.FromCore(string(rader.SPPlus), "", events, det.Report()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, ar.Report) {
		t.Fatalf("stored-trace verdict != local verdict:\nremote: %s\nlocal:  %s", ar.Report, local)
	}
}

// A partially uploaded trace survives a daemon restart: the new process
// reports the durable offset and the client finishes from there.
func TestPartialUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	raw := fixture(t, "fig1_v2.trace")
	dg, _ := trace.DigestOf(bytes.NewReader(raw))
	digest := dg.String()
	half := len(raw) / 2

	_, ts1 := openDurable(t, dir, Config{Workers: 2})
	if resp, body := putChunk(t, ts1.URL, digest, 0, false, raw[:half]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 1: %d %s", resp.StatusCode, body)
	}
	ts1.Close()

	_, ts2 := openDurable(t, dir, Config{Workers: 2})
	off, complete := headTrace(t, ts2.URL, digest)
	if off != int64(half) || complete {
		t.Fatalf("restart lost the partial: offset %d complete %v, want %d false", off, complete, half)
	}
	if resp, body := putChunk(t, ts2.URL, digest, off, true, raw[half:]); resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume after restart: %d %s", resp.StatusCode, body)
	}
	if resp, body := postAnalyze(t, ts2.URL+"/analyze?digest="+digest, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze resumed trace: %d %s", resp.StatusCode, body)
	}
}

// A complete upload whose content is wrong — digest mismatch or an
// invalid trace — is rejected at commit with 422 and the partial is
// quarantined, forcing a clean restart from offset 0.
func TestIngestCommitRejectsCorruptContent(t *testing.T) {
	dir := t.TempDir()
	_, ts := openDurable(t, dir, Config{Workers: 2})

	// Content that hashes to the claimed digest but is not a trace.
	junk := []byte("definitely not a CILKTRACE stream")
	dg, _ := trace.DigestOf(bytes.NewReader(junk))
	resp, body := putChunk(t, ts.URL, dg.String(), 0, true, junk)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("non-trace commit: %d %s", resp.StatusCode, body)
	}
	if off, complete := headTrace(t, ts.URL, dg.String()); off != 0 || complete {
		t.Fatalf("rejected upload must reset: offset %d complete %v", off, complete)
	}

	// Content that does not hash to the claimed digest.
	raw := fixture(t, "fig1_v2.trace")
	wrong := strings.Repeat("ab", 32)
	resp, body = putChunk(t, ts.URL, wrong, 0, true, raw)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("digest-mismatch commit: %d %s", resp.StatusCode, body)
	}
}

// Ingest request validation: digests are checked before any disk I/O and
// a store-less daemon refuses the endpoint outright.
func TestIngestValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := openDurable(t, dir, Config{Workers: 1})

	resp, body := putChunk(t, ts.URL, "not-a-digest", 0, false, []byte("x"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad digest: %d %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/"+strings.Repeat("ab", 32), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}

	// Without a store the whole endpoint is 501, and so is
	// analyze-by-digest.
	_, plain := newTestServer(t, Config{Workers: 1})
	resp, body = putChunk(t, plain.URL, strings.Repeat("ab", 32), 0, false, []byte("x"))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("store-less ingest: %d %s", resp.StatusCode, body)
	}
	aresp, abody := postAnalyze(t, plain.URL+"/analyze?digest="+strings.Repeat("ab", 32), nil)
	if aresp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("store-less analyze-by-digest: %d %s", aresp.StatusCode, abody)
	}
}

// The graceful-drain contract: once draining, /readyz flips to 503 while
// /healthz stays 200, and every work-accepting endpoint refuses with 503
// (not 429 — the condition is terminal for this process).
func TestDrainRefusesNewWorkReadyzBeforeHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/readyz") != http.StatusOK || get("/healthz") != http.StatusOK {
		t.Fatal("fresh server must be ready and healthy")
	}

	s.BeginDrain()
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("draining server must fail readiness")
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("draining server must stay live — readiness flips first, liveness last")
	}
	resp, body := postAnalyze(t, ts.URL+"/analyze", fixture(t, "fig1_v2.trace"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain refusal must carry Retry-After")
	}
	sresp, err := http.Post(ts.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep: %d", sresp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
}

// Draining with work in flight waits for it; an expired deadline reports
// how much was abandoned.
func TestDrainWaitsForInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
	// Occupy the only worker with a sweep.
	resp, err := http.Post(ts.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.Admitted() != 0 {
		t.Fatalf("post-drain admitted = %d", s.Admitted())
	}
}

// A journaled-but-unfinished sweep job from a dead incarnation is
// re-enqueued on the next start, runs to completion, and closes its
// journal record — a third start finds nothing pending.
func TestJournaledJobReenqueuedOnRestart(t *testing.T) {
	dir := t.TempDir()

	// Incarnation 1 "crashes" with a queued job in the journal. Writing
	// the record directly simulates dying after the 202 acknowledgment
	// but before the sweep ran.
	s1, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.store.JournalJob(store.JobRecord{ID: "dead0-sweep-1", Prog: "fig1", State: store.JobQueued}); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 must re-enqueue and finish it.
	s2, err := Open(Config{Workers: 1, SweepWorkers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.recovery.PendingJobs); got != 1 {
		t.Fatalf("recovery found %d pending jobs, want 1", got)
	}
	if s2.recovered.Load() != 1 {
		t.Fatalf("recovered counter = %d, want 1", s2.recovered.Load())
	}
	deadline := time.Now().Add(30 * time.Second)
	for s2.Admitted() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovered job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Incarnation 3: the journal is clean and the sweep verdict is
	// already durable.
	s3, ts3 := openDurable(t, dir, Config{Workers: 1})
	if got := len(s3.recovery.PendingJobs); got != 0 {
		t.Fatalf("journal not closed after recovered run: %d pending", got)
	}
	resp, err := http.Post(ts3.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered sweep verdict should be a stored hit: %d %s", resp.StatusCode, body)
	}
}

// A journaled job naming a program this build does not know is closed as
// failed, not retried forever.
func TestJournaledJobUnknownProgramMarkedFailed(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.store.JournalJob(store.JobRecord{ID: "dead0-sweep-9", Prog: "no-such-program", State: store.JobQueued}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.recovery.PendingJobs); got != 1 {
		t.Fatalf("second open: %d pending, want 1", got)
	}
	s3, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s3.recovery.PendingJobs); got != 0 {
		t.Fatalf("unknown-program job must be closed failed: %d still pending", got)
	}
}

// Chunked ingest of a multi-hundred-megabyte upload must not buffer the
// trace in RAM: heap growth across the whole upload stays bounded by a
// constant far below the payload size.
func TestLargeChunkedUploadBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large upload test skipped in -short mode")
	}
	dir := t.TempDir()
	_, ts := openDurable(t, dir, Config{Workers: 1, MaxUploadBytes: 8 << 20})

	const total = 120 << 20 // 120 MiB, well past any plausible buffer
	const chunk = 6 << 20
	// Deterministic pseudo-random content, generated chunk by chunk so the
	// test itself never holds the payload either.
	makeChunk := func(off int64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			v := off + int64(i)
			b[i] = byte(v*2654435761 + v>>13)
		}
		return b
	}
	digest := strings.Repeat("0123456789abcdef", 4) // never committed; content is junk

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak uint64

	for off := int64(0); off < total; off += chunk {
		n := chunk
		if rem := total - off; rem < int64(n) {
			n = int(rem)
		}
		resp, body := putChunk(t, ts.URL, digest, off, false, makeChunk(off, n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunk at %d: %d %s", off, resp.StatusCode, body)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	if off, _ := headTrace(t, ts.URL, digest); off != total {
		t.Fatalf("durable offset %d, want %d", off, total)
	}

	// Peak heap growth must be a small constant (chunk buffers + HTTP
	// machinery), nowhere near the 120 MiB payload.
	growth := int64(peak) - int64(before.HeapAlloc)
	if growth > 64<<20 {
		t.Fatalf("heap grew %d MiB during a streamed 120 MiB upload — ingest is buffering", growth>>20)
	}
}
