package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeAnalyze(t *testing.T, b []byte) AnalyzeResponse {
	t.Helper()
	var ar AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return ar
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Uploading the same trace twice must run the analysis once: the second
// response is a cache hit with a byte-identical verdict document.
func TestAnalyzeUploadCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	raw := fixture(t, "fig1_v2.trace")

	resp, body := postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first analyze: %d %s", resp.StatusCode, body)
	}
	first := decodeAnalyze(t, body)
	if first.Cached {
		t.Fatal("first analysis cannot be a cache hit")
	}
	if first.Clean {
		t.Fatal("fig1 under steal-all must race")
	}
	wantDigest, _ := trace.DigestOf(bytes.NewReader(raw))
	if first.Digest != wantDigest.String() {
		t.Fatalf("digest %s, want %s", first.Digest, wantDigest)
	}

	resp2, body2 := postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: %d %s", resp2.StatusCode, body2)
	}
	second := decodeAnalyze(t, body2)
	if !second.Cached {
		t.Fatal("identical upload must be served from cache")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatalf("cached verdict differs:\n%s\nvs\n%s", first.Report, second.Report)
	}
	if s.CacheHits() != 1 {
		t.Fatalf("cache hits = %d, want 1", s.CacheHits())
	}

	// The verdict must equal a local replay encoded under the shared
	// schema — the record-locally/analyze-remotely equivalence.
	det, hooks, err := rader.NewDetector(rader.SPPlus)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Replay(bytes.NewReader(raw), hooks)
	if err != nil {
		t.Fatal(err)
	}
	local, err := report.FromCore(string(rader.SPPlus), "", events, det.Report()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, first.Report) {
		t.Fatalf("remote verdict != local verdict:\nremote: %s\nlocal:  %s", first.Report, local)
	}
}

// A legacy v1 (CILKTRACE1, unfootered) stream must still analyze: recorded
// traces outlive daemon upgrades.
func TestAnalyzeV1BackCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", fixture(t, "fig1_v1.trace"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 analyze: %d %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Clean {
		t.Fatal("v1 fig1 trace must report the figure-1 race")
	}
	var rep report.Report
	if err := json.Unmarshal(ar.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != report.Schema || rep.Distinct != 1 {
		t.Fatalf("unexpected verdict: %+v", rep)
	}
	// The v1 framing has different bytes than the v2 recording of the
	// same run, so it must cache under a different digest.
	v2d, _ := trace.DigestOf(bytes.NewReader(fixture(t, "fig1_v2.trace")))
	if ar.Digest == v2d.String() {
		t.Fatal("v1 and v2 framings must not share a digest")
	}
}

// Named built-ins analyze without an upload, and the (program, detector,
// spec) configuration is cached like a trace digest.
func TestAnalyzeNamedProgram(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	url := ts.URL + "/analyze?prog=fig1&spec=all&detector=sp%2B"
	resp, body := postAnalyze(t, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named analyze: %d %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Clean {
		t.Fatal("fig1 under all-steals must race")
	}
	if ar.Spec != "all" {
		t.Fatalf("spec echo = %q", ar.Spec)
	}

	// Same program, different spec — distinct cache entry, clean verdict
	// (the figure-1 race needs a steal).
	resp2, body2 := postAnalyze(t, ts.URL+"/analyze?prog=fig1&spec=none&detector=sp%2B", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("serial analyze: %d %s", resp2.StatusCode, body2)
	}
	if ar2 := decodeAnalyze(t, body2); !ar2.Clean || ar2.Cached {
		t.Fatalf("serial fig1 should be a fresh clean verdict, got %+v", ar2)
	}

	resp3, body3 := postAnalyze(t, url, nil)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("repeat analyze: %d %s", resp3.StatusCode, body3)
	}
	if ar3 := decodeAnalyze(t, body3); !ar3.Cached {
		t.Fatal("repeat configuration must hit the cache")
	}
	if s.CacheHits() != 1 {
		t.Fatalf("cache hits = %d, want 1", s.CacheHits())
	}

	// Corpus entries resolve by name too.
	resp4, body4 := postAnalyze(t, ts.URL+"/analyze?prog=view-read-early-get&detector=peer-set", nil)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("corpus analyze: %d %s", resp4.StatusCode, body4)
	}
	if ar4 := decodeAnalyze(t, body4); ar4.Clean {
		t.Fatal("view-read-early-get must report a view-read race under peer-set")
	}
}

func TestAnalyzeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"empty body, no prog", "/analyze", nil, http.StatusBadRequest},
		{"bad detector", "/analyze?detector=quantum", []byte("x"), http.StatusBadRequest},
		{"unknown program", "/analyze?prog=nonesuch", nil, http.StatusNotFound},
		{"bad spec", "/analyze?prog=fig1&spec=sometimes", nil, http.StatusBadRequest},
		{"bad scale", "/analyze?prog=fib&scale=galactic", nil, http.StatusNotFound},
		{"garbage trace", "/analyze", []byte("not a trace at all"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postAnalyze(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error responses must carry a JSON error: %s", body)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze = %d, want 405", resp.StatusCode)
	}
}

// A truncated upload must come back as an analysis failure naming the
// truncation, not a 500 or a hang.
func TestAnalyzeTruncatedUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	raw := fixture(t, "fig1_v2.trace")
	resp, body := postAnalyze(t, ts.URL+"/analyze", raw[:len(raw)-20])
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("truncated upload: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "truncated") {
		t.Fatalf("error must name the truncation: %s", body)
	}
}

// Detectors none and empty analyze an upload as a validate-only pass:
// an intact trace yields an empty clean report, a truncated one is still
// rejected with 422 — the same contract as rader -replay.
func TestAnalyzeValidateOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	raw := fixture(t, "fig1_v2.trace")
	for _, det := range []string{"none", "empty"} {
		resp, body := postAnalyze(t, ts.URL+"/analyze?detector="+det, raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", det, resp.StatusCode, body)
		}
		ar := decodeAnalyze(t, body)
		var rep report.Report
		if err := json.Unmarshal(ar.Report, &rep); err != nil {
			t.Fatal(err)
		}
		if !ar.Clean || rep.Detector != det || rep.Events == 0 || len(rep.Races) != 0 {
			t.Fatalf("%s: validate-only verdict is not an empty clean report: %s", det, ar.Report)
		}
		resp, body = postAnalyze(t, ts.URL+"/analyze?detector="+det, raw[:len(raw)-20])
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "truncated") {
			t.Fatalf("%s: truncated upload: %d %s", det, resp.StatusCode, body)
		}
	}
}

// Saturation: with the pool full and the queue full, further requests are
// shed with 429, and the worker bound is never exceeded.
func TestAnalyzeSheddingUnderSaturation(t *testing.T) {
	const workers, queue = 2, 2
	gate := make(chan struct{})
	var cur, peak atomic.Int32
	blocking := progOf("blocks until the test opens the gate", func() {
		v := cur.Add(1)
		for {
			p := peak.Load()
			if v <= p || peak.CompareAndSwap(p, v) {
				break
			}
		}
		<-gate
		cur.Add(-1)
	})
	s, ts := newTestServer(t, Config{
		Workers:    workers,
		QueueDepth: queue,
		Programs:   map[string]corpus.Program{"slow": blocking},
	})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, workers+queue)
	var wg sync.WaitGroup
	for i := 0; i < workers+queue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postAnalyze(t, ts.URL+"/analyze?prog=slow&detector=none", nil)
			results <- result{resp.StatusCode, body}
		}()
	}

	// Wait until the system is provably full: workers running, queue full.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admitted() < workers+queue {
		if time.Now().After(deadline) {
			t.Fatalf("pool never filled: admitted=%d running=%d", s.Admitted(), s.Running())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Running() > workers {
		t.Fatalf("running=%d exceeds worker bound %d", s.Running(), workers)
	}

	// Everything beyond capacity is shed immediately with 429.
	for i := 0; i < 5; i++ {
		resp, body := postAnalyze(t, ts.URL+"/analyze?prog=slow&detector=none", nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: %d %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 must carry Retry-After")
		}
	}

	close(gate)
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("admitted request failed: %d %s", r.status, r.body)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent analyses, worker bound is %d", p, workers)
	}
	var mb bytes.Buffer
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(&mb, mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mb.String(), `raderd_jobs_total{state="rejected"} 5`) {
		t.Fatalf("metrics must count the shed requests:\n%s", mb.String())
	}
}

// JobTimeout bounds a named-program run from the moment it starts, not from
// its arrival: an analysis that waited in the queue for longer than the
// timeout behind a blocked one still runs to its verdict.
func TestAnalyzeTimeoutExcludesQueueWait(t *testing.T) {
	const timeout = 200 * time.Millisecond
	gate := make(chan struct{})
	blocking := progOf("blocks until the test opens the gate", func() { <-gate })
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		JobTimeout: timeout,
		Programs:   map[string]corpus.Program{"slow": blocking},
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("never %s: admitted=%d running=%d", what, s.Admitted(), s.Running())
			}
			time.Sleep(time.Millisecond)
		}
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	analyze := func(query string, out chan<- result) {
		resp, err := http.Post(ts.URL+"/analyze?"+query, "application/octet-stream", nil)
		if err != nil {
			out <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out <- result{resp.StatusCode, body, err}
	}
	blocked, queued := make(chan result, 1), make(chan result, 1)
	go analyze("prog=slow&detector=none", blocked)
	waitFor("started the blocking run", func() bool { return s.Running() == 1 })
	go analyze("prog=fig1&detector=peer-set&spec=all", queued)
	waitFor("queued the second run", func() bool { return s.Admitted() == 2 })

	time.Sleep(timeout + 100*time.Millisecond)
	close(gate)
	if r := <-blocked; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("blocking run: %v %d %s", r.err, r.status, r.body)
	}
	if r := <-queued; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("run queued for longer than -job-timeout: %v %d %s", r.err, r.status, r.body)
	}
}

// The §7 sweep runs as an async job: submit, poll to done, verdict carries
// the figure-1 race; resubmission is served from cache without re-running.
func TestSweepAsyncJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	resp, err := http.Post(ts.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID == "" || (sr.State != stateQueued && sr.State != stateRunning) {
		t.Fatalf("unexpected submit response: %+v", sr)
	}

	deadline := time.Now().Add(30 * time.Second)
	for sr.State != stateDone && sr.State != stateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in state %q", sr.State)
		}
		time.Sleep(5 * time.Millisecond)
		pr, err := http.Get(ts.URL + "/sweep/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := io.ReadAll(pr.Body)
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", pr.StatusCode, pb)
		}
		if err := json.Unmarshal(pb, &sr); err != nil {
			t.Fatal(err)
		}
	}
	if sr.State != stateDone {
		t.Fatalf("sweep failed: %s", sr.Error)
	}
	var sweep report.Sweep
	if err := json.Unmarshal(sr.Sweep, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Clean || len(sweep.Races) == 0 {
		t.Fatalf("the fig1 sweep must find the race: %s", sr.Sweep)
	}
	if !sweep.Complete {
		t.Fatalf("sweep incomplete: %s", sr.Sweep)
	}

	// Resubmitting is a cache hit: the job arrives already done.
	resp2, err := http.Post(ts.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached sweep submit: %d %s", resp2.StatusCode, body2)
	}
	var sr2 SweepResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.State != stateDone || !bytes.Equal(sr2.Sweep, sr.Sweep) {
		t.Fatalf("resubmission must be served done from cache: %+v", sr2)
	}
	if s.CacheHits() != 1 {
		t.Fatalf("cache hits = %d, want 1", s.CacheHits())
	}

	// Unknown job IDs 404.
	pr, err := http.Get(ts.URL + "/sweep/sweep-999")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job poll: %d", pr.StatusCode)
	}
}

// pollSweepDone polls a submitted sweep job until it reaches a terminal
// state and requires that state to be done.
func pollSweepDone(t *testing.T, base string, sr SweepResponse) SweepResponse {
	t.Helper()
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
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", pr.StatusCode, pb)
		}
		if err := json.Unmarshal(pb, &sr); err != nil {
			t.Fatal(err)
		}
	}
	if sr.State != stateDone {
		t.Fatalf("sweep failed: %s", sr.Error)
	}
	return sr
}

// ?sample= caps the sweep at that many coverage-guided specifications and
// is part of the verdict's cache identity; ?workers= only changes the
// scheduler width, so it shares the cache entry. Malformed values 400.
func TestSweepSampleAndWorkersParams(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})

	submit := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sweep?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := submit("prog=fig1&sample=3&workers=4")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sampled sweep submit: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sr = pollSweepDone(t, ts.URL, sr)
	var sweep report.Sweep
	if err := json.Unmarshal(sr.Sweep, &sweep); err != nil {
		t.Fatal(err)
	}
	if !sweep.Stats.Sampled || sweep.Stats.Confidence == "" {
		t.Fatalf("sampled sweep document missing sampling stats: %+v", sweep.Stats)
	}
	if sweep.Stats.CoverageFraction <= 0 || sweep.Stats.CoverageFraction >= 1 {
		t.Fatalf("coverage fraction %v, want in (0,1)", sweep.Stats.CoverageFraction)
	}
	if sweep.SpecsRun > 3 {
		t.Fatalf("sampled sweep ran %d specs, cap was 3", sweep.SpecsRun)
	}

	// The full-family sweep must not be served from the sampled verdict.
	resp2, body2 := submit("prog=fig1")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("full sweep after sampled: %d %s (a cache hit here would serve the wrong verdict)",
			resp2.StatusCode, body2)
	}
	var full SweepResponse
	if err := json.Unmarshal(body2, &full); err != nil {
		t.Fatal(err)
	}
	pollSweepDone(t, ts.URL, full)

	// The same sampled request is a cache hit; a different workers= value
	// still hits, because scheduler width never changes the verdict.
	for _, q := range []string{"prog=fig1&sample=3", "prog=fig1&sample=3&workers=8"} {
		resp3, body3 := submit(q)
		var again SweepResponse
		if err := json.Unmarshal(body3, &again); err != nil {
			t.Fatal(err)
		}
		if resp3.StatusCode != http.StatusOK || again.State != stateDone {
			t.Fatalf("%s: %d %+v, want cache-served done job", q, resp3.StatusCode, again)
		}
		if !bytes.Equal(again.Sweep, sr.Sweep) {
			t.Fatalf("%s served a different document than the computing job", q)
		}
	}

	for _, q := range []string{"prog=fig1&sample=x", "prog=fig1&sample=-1", "prog=fig1&workers=no"} {
		resp4, body4 := submit(q)
		if resp4.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", q, resp4.StatusCode, body4)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	// Drive one analysis so the histogram materializes.
	postAnalyze(t, ts.URL+"/analyze?prog=fig1&spec=all", nil)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	for _, series := range []string{
		`raderd_jobs_total{state="done"} 1`,
		"raderd_queue_depth 0",
		"raderd_workers 1",
		"raderd_cache_misses_total 1",
		"raderd_cache_hit_ratio 0",
		"raderd_cache_entries 1",
		`raderd_sweep_jobs{state="done"} 0`,
		`raderd_analyze_latency_seconds_bucket{detector="sp+",le="+Inf"} 1`,
		`raderd_analyze_latency_seconds_count{detector="sp+"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q:\n%s", series, text)
		}
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
}

// Unit coverage for the LRU: capacity bound, recency refresh, overwrite.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, 0)
	c.put("a", &cached{digest: "a"})
	c.put("b", &cached{digest: "b"})
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a should be resident")
	}
	c.put("c", &cached{digest: "c"}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least-recently-used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s should be resident", k)
		}
	}
	c.put("a", &cached{digest: "a2"})
	if v, _ := c.get("a"); v.digest != "a2" {
		t.Fatal("put must overwrite in place")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// Two equal uploads racing through a cold cache both succeed; the cache
// ends up with one entry (last writer wins on the same key).
func TestConcurrentSameDigestUploads(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	raw := fixture(t, "fig1_v2.trace")
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", raw)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("%d %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s.cache.len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.cache.len())
	}
}
