package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/obs"
	"repro/internal/rader"
)

// analyzeWithTraceparent posts one /analyze request carrying a client
// traceparent and returns the decoded response.
func analyzeWithTraceparent(t *testing.T, url, tp string) AnalyzeResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	return decodeAnalyze(t, body)
}

// A propagated traceparent must surface in the persisted span tree: the
// stored SpanDoc carries the client's trace ID, and the Chrome rendering
// of GET /traces/{digest}/trace contains the server's phase spans.
func TestTraceparentLinksServerSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ctx := obs.NewSpanContext()
	ar := analyzeWithTraceparent(t, ts.URL+"/analyze?prog=fig1&spec=all", ctx.Traceparent())
	if ar.Cached {
		t.Fatal("first analysis cannot be cached")
	}

	resp, err := http.Get(ts.URL + "/traces/" + ar.Digest + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("span tree fetch: %d %s", resp.StatusCode, raw)
	}
	doc, err := obs.DecodeSpans(raw)
	if err != nil {
		t.Fatalf("decoding span doc: %v", err)
	}
	if doc.Process != "raderd" {
		t.Errorf("process = %q, want raderd", doc.Process)
	}
	sctx, ok := doc.Context()
	if !ok {
		t.Fatalf("span doc has no trace context: %s", raw)
	}
	if sctx.TraceID != ctx.TraceID {
		t.Errorf("server trace ID %x, want the client's %x", sctx.TraceID, ctx.TraceID)
	}
	if sctx.SpanID == ctx.SpanID {
		t.Error("server must mint its own span ID, not reuse the client's")
	}
	var names []string
	for _, sp := range doc.Spans {
		names = append(names, sp.Name)
	}
	for _, want := range []string{"queue", "run", "encode"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("span tree lacks phase %q (have %v)", want, names)
		}
	}

	// Default format is Chrome trace-event JSON with process metadata.
	cresp, err := http.Get(ts.URL + "/traces/" + ar.Digest + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	craw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace fetch: %d %s", cresp.StatusCode, craw)
	}
	var cdoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(craw, &cdoc); err != nil {
		t.Fatalf("chrome trace is not a trace-event document: %v", err)
	}
	var haveX, haveMeta bool
	for _, ev := range cdoc.TraceEvents {
		switch ev["ph"] {
		case "X":
			haveX = true
		case "M":
			haveMeta = true
		}
	}
	if !haveX || !haveMeta {
		t.Errorf("chrome rendering needs X spans and M metadata, got X=%v M=%v", haveX, haveMeta)
	}
}

// An uploaded trace's server span tree carries the analysis pipeline's
// spans — the same names a local rader -profile-out replay records —
// beneath the service's queue/run/encode phases.
func TestAnalyzeSpanTreeMatchesLocalReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	raw := fixture(t, "fig1_v2.trace")
	resp, body := postAnalyze(t, ts.URL+"/analyze?detector=depa", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	tresp, err := http.Get(ts.URL + "/traces/" + ar.Digest + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	doc, err := obs.DecodeSpans(tree)
	if err != nil {
		t.Fatal(err)
	}
	server := map[string]bool{}
	for _, sp := range doc.Spans {
		server[sp.Name] = true
		if sp.Name == "replay" {
			for _, arg := range []string{"events", "bytes", "frames"} {
				if sp.Args[arg] == nil {
					t.Errorf("replay span lacks %q: %v", arg, sp.Args)
				}
			}
		}
	}

	local := obs.NewTrace()
	if _, err := analyze.Trace(raw, analyze.Options{Detector: rader.Depa, Trace: local}); err != nil {
		t.Fatal(err)
	}
	want := []string{"queue", "run", "encode"}
	for _, sp := range local.Spans() {
		want = append(want, sp.Name)
	}
	for _, name := range append(want, "replay", "detector:depa", "rader_depa_shard") {
		if !server[name] {
			t.Errorf("server span tree lacks %q (have %v)", name, server)
		}
	}
}

// Without a traceparent the server roots its own trace; the tree is
// still persisted and retrievable.
func TestTraceTreeWithoutClientContext(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postAnalyze(t, ts.URL+"/analyze?prog=fig1&spec=none", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	tresp, err := http.Get(ts.URL + "/traces/" + ar.Digest + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("span tree fetch: %d %s", tresp.StatusCode, raw)
	}
	doc, err := obs.DecodeSpans(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Context(); !ok {
		t.Error("a server-rooted trace must still carry a valid context")
	}
}

// A malformed traceparent must not fail the request — propagation is an
// upgrade, never a requirement.
func TestMalformedTraceparentIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ar := analyzeWithTraceparent(t, ts.URL+"/analyze?prog=fig1&spec=all", "00-borked")
	if ar.Clean {
		t.Fatal("fig1 under steal-all must race")
	}
}

func TestTraceTreeNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	digest := strings.Repeat("ab", 32)
	resp, err := http.Get(ts.URL + "/traces/" + digest + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest trace: %d, want 404", resp.StatusCode)
	}
	badResp, err := http.Get(ts.URL + "/traces/nothex/trace")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad digest trace: %d, want 400", badResp.StatusCode)
	}
}

// submitSweep posts /sweep and returns the decoded job envelope.
func submitSweep(t *testing.T, url string) SweepResponse {
	t.Helper()
	resp, err := http.Post(url, "", nil)
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
	return sr
}

// waitJobDone polls /sweep/{id} until the job is terminal.
func waitJobDone(t *testing.T, base, id string) SweepResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/sweep/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sr SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.State == stateDone || sr.State == stateFailed {
			return sr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, sr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed frame of an SSE stream.
type sseEvent struct {
	name string
	ev   JobEvent
}

// readSSE consumes an event stream to completion, skipping keepalive
// comments, and returns the parsed frames.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var name string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			out = append(out, sseEvent{name: name, ev: ev})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// The events stream must deliver monotone progress and end with a
// terminal event whose state matches the job's final status.
func TestJobEventsSSEMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	sr := submitSweep(t, ts.URL+"/sweep?prog=fig1")

	resp, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	var prev obs.ProgressSnapshot
	for i, e := range events {
		p := e.ev.Progress
		if p.UnitsDone < prev.UnitsDone || p.UnitsTotal < prev.UnitsTotal ||
			p.EventsSkipped < prev.EventsSkipped || p.PagesCopied < prev.PagesCopied ||
			p.Races < prev.Races {
			t.Fatalf("event %d regressed: %+v after %+v", i, p, prev)
		}
		prev = p
		if e.ev.ID != sr.ID {
			t.Fatalf("event %d names job %q, want %q", i, e.ev.ID, sr.ID)
		}
		if e.name == "end" && i != len(events)-1 {
			t.Fatalf("terminal event %d is not last of %d", i, len(events))
		}
	}
	last := events[len(events)-1]
	if last.name != "end" {
		t.Fatalf("stream ended with %q, want end", last.name)
	}
	final := waitJobDone(t, ts.URL, sr.ID)
	if last.ev.State != final.State {
		t.Fatalf("terminal event state %q, final job state %q", last.ev.State, final.State)
	}
	if final.State != stateDone {
		t.Fatalf("sweep failed: %s", final.Error)
	}
	if last.ev.Progress.UnitsTotal == 0 || last.ev.Progress.UnitsDone != last.ev.Progress.UnitsTotal {
		t.Fatalf("terminal progress incomplete: %+v", last.ev.Progress)
	}
	if last.ev.Progress.Races == 0 {
		t.Fatalf("fig1 sweep must report live races: %+v", last.ev.Progress)
	}
}

// ?wait=1 is the long-poll fallback: one JSON JobEvent per request, with
// the event version in a header so the client can block for the next.
func TestJobEventsLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	sr := submitSweep(t, ts.URL+"/sweep?prog=fig1")
	waitJobDone(t, ts.URL, sr.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/events?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll: %d %s", resp.StatusCode, body)
	}
	ver := resp.Header.Get("X-Job-Event-Version")
	if ver == "" {
		t.Fatal("long-poll response lacks X-Job-Event-Version")
	}
	var ev JobEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.State != stateDone {
		t.Fatalf("long-poll state %q, want done", ev.State)
	}

	// Echoing the current version of a terminal job returns immediately
	// (terminal short-circuits the wait).
	start := time.Now()
	resp2, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?wait=1&ver=%s", ts.URL, sr.ID, ver))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("terminal long-poll blocked %v", d)
	}
}

// GET /jobs/{id} mirrors the poll surface; unknown subresources 404.
func TestJobsSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	sr := submitSweep(t, ts.URL+"/sweep?prog=fig1")

	resp, err := http.Get(ts.URL + "/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs view: %d %s", resp.StatusCode, body)
	}
	var view SweepResponse
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID != sr.ID {
		t.Fatalf("jobs view ID %q, want %q", view.ID, sr.ID)
	}

	for path, want := range map[string]int{
		"/jobs/" + sr.ID + "/bogus": http.StatusNotFound,
		"/jobs/nonesuch/events":     http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// A finished sweep serves its span tree on /jobs/{id}/trace; a later
// cache-served job (which ran nothing) serves the computing sweep's tree
// through its spans key.
func TestJobTraceAndCacheFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	ctx := obs.NewSpanContext()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/sweep?prog=fig1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, ctx.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("submit: %v (%s)", err, body)
	}
	waitJobDone(t, ts.URL, sr.ID)

	fetchDoc := func(id string) *obs.SpanDoc {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace?format=spans")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job trace: %d %s", resp.StatusCode, raw)
		}
		doc, err := obs.DecodeSpans(raw)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := fetchDoc(sr.ID)
	sctx, ok := doc.Context()
	if !ok || sctx.TraceID != ctx.TraceID {
		t.Fatalf("sweep span tree not parented under the client trace: ok=%v", ok)
	}
	var haveUnit bool
	for _, sp := range doc.Spans {
		if strings.HasPrefix(sp.Name, "spec:") {
			haveUnit = true
		}
	}
	if !haveUnit {
		t.Errorf("sweep span tree lacks per-unit spec: spans")
	}

	// Resubmission is a cache hit: a fresh job ID that never ran, served
	// by the persisted tree of the sweep above.
	sr2 := submitSweep(t, ts.URL+"/sweep?prog=fig1")
	if sr2.State != stateDone {
		t.Fatalf("resubmission state %q, want done", sr2.State)
	}
	doc2 := fetchDoc(sr2.ID)
	ctx2, ok := doc2.Context()
	if !ok || ctx2.TraceID != sctx.TraceID {
		t.Fatalf("cache-served job must fall back to the computing sweep's tree")
	}
}

// The /debug/requests ring retains recent requests newest-first, records
// propagated traceparents, and excludes itself.
func TestDebugRequestsRing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ctx := obs.NewSpanContext()
	analyzeWithTraceparent(t, ts.URL+"/analyze?prog=fig1&spec=all", ctx.Traceparent())
	http.Get(ts.URL + "/healthz")

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/requests: %d %s", resp.StatusCode, body)
	}
	var page struct {
		Capacity int                 `json:"capacity"`
		Requests []obs.RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Capacity != requestRingSize {
		t.Errorf("capacity = %d, want %d", page.Capacity, requestRingSize)
	}
	if len(page.Requests) < 2 {
		t.Fatalf("ring holds %d requests, want at least 2", len(page.Requests))
	}
	// Newest first: /healthz before /analyze.
	if page.Requests[0].Path != "/healthz" {
		t.Errorf("newest request is %q, want /healthz", page.Requests[0].Path)
	}
	var analyzed *obs.RequestRecord
	for i := range page.Requests {
		if page.Requests[i].Path == "/analyze" {
			analyzed = &page.Requests[i]
		}
		if page.Requests[i].Path == "/debug/requests" {
			t.Error("the ring must not record /debug/requests itself")
		}
	}
	if analyzed == nil {
		t.Fatal("/analyze missing from the ring")
	}
	if analyzed.Status != http.StatusOK {
		t.Errorf("analyze status = %d", analyzed.Status)
	}
	if analyzed.Traceparent != ctx.Traceparent() {
		t.Errorf("traceparent = %q, want %q", analyzed.Traceparent, ctx.Traceparent())
	}
	if analyzed.Duration <= 0 {
		t.Errorf("duration = %v", analyzed.Duration)
	}
}

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Cache hits log cacheHit=true; the first analysis logs cacheHit=false.
// The slog line shape is part of the observability surface.
func TestAnalyzeLogCacheHitFields(t *testing.T) {
	var buf bytes.Buffer
	sw := &syncWriter{w: &buf}
	logger := slog.New(slog.NewTextHandler(sw, nil))
	_, ts := newTestServer(t, Config{Workers: 2, Logger: logger})
	raw := fixture(t, "fig1_v2.trace")
	postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", raw)
	postAnalyze(t, ts.URL+"/analyze?detector=sp%2B", raw)

	sw.mu.Lock()
	out := buf.String()
	sw.mu.Unlock()
	if !strings.Contains(out, "cacheHit=false") {
		t.Errorf("first analysis must log cacheHit=false:\n%s", out)
	}
	if !strings.Contains(out, "cacheHit=true") {
		t.Errorf("second analysis must log cacheHit=true:\n%s", out)
	}
	if !strings.Contains(out, "elide=false") {
		t.Errorf("analyze logs must carry the elide field:\n%s", out)
	}
}
