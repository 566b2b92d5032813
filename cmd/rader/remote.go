package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/trace"
)

// remoteRequest is one -remote invocation's worth of intent: exactly one
// of replayPath (upload a recorded trace), coverage (async §7 sweep of a
// named program), or the default named-program analysis.
type remoteRequest struct {
	replayPath string
	prog       string
	scale      string
	detector   string
	spec       string
	coverage   bool
	// sweepW/sweepN mirror -sweep-workers/-sweep-sample onto the daemon's
	// ?workers=/?sample= sweep parameters (0 = daemon default / full family).
	sweepW  int
	sweepN  int
	jsonOut bool
	// elide asks the daemon to run the static elision pre-pass before
	// detection (?elide=1). Verdicts are byte-identical either way; the
	// daemon's raderd_elide_* series account for the saved work.
	elide bool
}

// remoteClient drives a raderd daemon — the analyze-remotely half of the
// record-once/analyze-many workflow. Every exchange goes through the
// retrying transport in retry.go, so transient saturation (429), a
// draining daemon (503) and dial failures heal without the user seeing
// them; exhausted retries surface as ordinary errors (exit code 2).
type remoteClient struct {
	base   string
	stdout io.Writer
	// client overrides http.DefaultClient in tests.
	client *http.Client
	retry  retryPolicy
	// ctx is the client half of the distributed trace: every request
	// carries a traceparent derived from it, so the daemon's span trees
	// parent under this invocation. Zero disables propagation.
	ctx obs.SpanContext
	// tr records client-side spans when -profile-out is set; nil keeps
	// every instrumentation site on its zero-cost path.
	tr *obs.Trace
	// serverDoc is the daemon's span tree for this invocation's work,
	// fetched best-effort after a successful analyze or sweep so
	// -profile-out can merge both sides onto one timeline.
	serverDoc *obs.SpanDoc
}

func (c *remoteClient) http() *http.Client {
	if c.client != nil {
		return c.client
	}
	return http.DefaultClient
}

func (c *remoteClient) run(req remoteRequest) (int, error) {
	if req.coverage {
		return c.sweep(req)
	}
	return c.analyze(req)
}

// Resumable-upload shape: traces at or past resumableThreshold go
// through PUT /traces/{digest} in uploadChunk-sized pieces (each fsynced
// server-side before acknowledgment) and are then analyzed by reference,
// so the upload runs in constant memory on both ends and an interrupted
// upload resumes from the last durable byte. Smaller traces — and any
// daemon without a store — use a single streamed POST body.
var (
	uploadChunk        = int64(4 << 20)
	resumableThreshold = int64(8 << 20)
)

// analyze submits one synchronous analysis: the trace file when
// -replay was given, the named program otherwise.
func (c *remoteClient) analyze(req remoteRequest) (int, error) {
	q := url.Values{}
	q.Set("detector", req.detector)
	var resp *http.Response
	var raw []byte
	var err error
	if req.replayPath != "" {
		if req.elide {
			q.Set("elide", "1")
		}
		resp, raw, err = c.analyzeTrace(req.replayPath, q)
	} else {
		if req.elide {
			return exitError, fmt.Errorf("-elide analyzes a recorded trace; it requires -replay")
		}
		q.Set("prog", req.prog)
		q.Set("scale", req.scale)
		q.Set("spec", req.spec)
		resp, raw, err = c.do(http.MethodPost, "/analyze?"+q.Encode(), nil, false)
	}
	if err != nil {
		return exitError, err
	}
	if resp.StatusCode != http.StatusOK {
		return exitError, remoteErr(resp, raw)
	}
	var ar service.AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		return exitError, fmt.Errorf("decoding daemon response: %v", err)
	}
	c.fetchServerSpans("/traces/" + ar.Digest + "/trace")
	if req.jsonOut {
		// Emit the verdict document exactly as the daemon encoded it —
		// byte-for-byte what a local -json run prints for the same trace.
		fmt.Fprintln(c.stdout, string(ar.Report))
	} else {
		c.printAnalyze(ar)
	}
	if ar.Clean {
		return exitClean, nil
	}
	return exitRaces, nil
}

// analyzeTrace uploads a recorded trace and returns the daemon's
// /analyze exchange. Large traces take the resumable digest-addressed
// path when the daemon supports it; everything else streams the file as
// a single POST body (reopened per retry attempt, never slurped).
func (c *remoteClient) analyzeTrace(path string, q url.Values) (*http.Response, []byte, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if st.Size() >= resumableThreshold {
		resp, raw, handled, err := c.analyzeViaStore(path, q)
		if handled {
			return resp, raw, err
		}
	}
	mkBody := func() (io.Reader, error) { return os.Open(path) }
	return c.do(http.MethodPost, "/analyze?"+q.Encode(), mkBody, false)
}

// analyzeViaStore drives the resumable path: digest the file, ask the
// daemon where the upload stands, push the missing chunks, then analyze
// by reference. handled=false means the daemon has no trace store (501,
// or a pre-store daemon's 404/405) and the caller should fall back to
// the plain body upload.
func (c *remoteClient) analyzeViaStore(path string, q url.Values) (resp *http.Response, raw []byte, handled bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, true, err
	}
	defer f.Close()
	dg, err := trace.DigestOf(f)
	if err != nil {
		return nil, nil, true, fmt.Errorf("digesting %s: %v", path, err)
	}
	digest := dg.String()

	hresp, _, err := c.do(http.MethodHead, "/traces/"+digest, nil, true)
	if err != nil {
		return nil, nil, true, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, nil, false, nil
	}
	offset, _ := strconv.ParseInt(hresp.Header.Get("Upload-Offset"), 10, 64)
	if hresp.Header.Get("Upload-Complete") != "true" {
		if err := c.uploadChunks(f, digest, offset); err != nil {
			return nil, nil, true, err
		}
	}
	q.Set("digest", digest)
	resp, raw, err = c.do(http.MethodPost, "/analyze?"+q.Encode(), nil, false)
	return resp, raw, true, err
}

// uploadChunks pushes the file from offset to EOF in uploadChunk pieces.
// Chunk PUTs are idempotent by construction — the server verifies the
// claimed offset against its durable state and answers a duplicate with
// 409 plus the true offset — so transport errors mid-chunk are safe to
// retry, and an offset conflict just resyncs the loop.
func (c *remoteClient) uploadChunks(f *os.File, digest string, offset int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	buf := make([]byte, uploadChunk)
	for offset < size {
		n := int64(len(buf))
		if rem := size - offset; rem < n {
			n = rem
		}
		if _, err := f.ReadAt(buf[:n], offset); err != nil {
			return fmt.Errorf("reading trace chunk at %d: %v", offset, err)
		}
		chunk := buf[:n]
		path := fmt.Sprintf("/traces/%s?offset=%d", digest, offset)
		if offset+n == size {
			path += "&complete=1"
		}
		cspan := c.tr.Start("chunk").Arg("offset", offset).Arg("bytes", n)
		resp, raw, err := c.do(http.MethodPut, path,
			func() (io.Reader, error) { return bytes.NewReader(chunk), nil }, true)
		cspan.End()
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			// Content-addressed no-op: the daemon already has this trace.
			return nil
		case http.StatusAccepted, http.StatusCreated:
			if v, perr := strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64); perr == nil {
				offset = v
			} else {
				offset += n
			}
		case http.StatusConflict:
			// Another client (or a retried chunk) moved the offset; the
			// header carries the durable truth to resume from.
			v, perr := strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
			if perr != nil {
				return remoteErr(resp, raw)
			}
			offset = v
		default:
			return remoteErr(resp, raw)
		}
	}
	return nil
}

func (c *remoteClient) printAnalyze(ar service.AnalyzeResponse) {
	served := "analyzed"
	if ar.Cached {
		served = "served from cache"
	}
	fmt.Fprintf(c.stdout, "remote: %s under %s (digest %s, %s)\n",
		c.base, ar.Detector, short(ar.Digest), served)
	if ar.Detector == "all" {
		var m report.Multi
		if err := json.Unmarshal(ar.Report, &m); err != nil {
			fmt.Fprintf(c.stdout, "unreadable verdict: %v\n", err)
			return
		}
		for _, rep := range m.Reports {
			if rep.Clean {
				fmt.Fprintf(c.stdout, "%s: no races detected\n", rep.Detector)
				continue
			}
			fmt.Fprintf(c.stdout, "%s: %d distinct race(s), %d report(s) total:\n",
				rep.Detector, rep.Distinct, rep.Total)
			for _, r := range rep.Races {
				fmt.Fprintf(c.stdout, "  %s\n", r)
			}
		}
		return
	}
	var rep report.Report
	if err := json.Unmarshal(ar.Report, &rep); err != nil {
		fmt.Fprintf(c.stdout, "unreadable verdict: %v\n", err)
		return
	}
	if rep.Clean {
		fmt.Fprintln(c.stdout, "no races detected")
		return
	}
	fmt.Fprintf(c.stdout, "%d distinct race(s), %d report(s) total:\n", rep.Distinct, rep.Total)
	for _, r := range rep.Races {
		fmt.Fprintf(c.stdout, "  %s\n", r)
	}
}

// sweep submits the §7 coverage sweep as an async job and polls until it
// resolves.
func (c *remoteClient) sweep(req remoteRequest) (int, error) {
	q := url.Values{}
	q.Set("prog", req.prog)
	q.Set("scale", req.scale)
	if req.sweepW > 0 {
		q.Set("workers", strconv.Itoa(req.sweepW))
	}
	if req.sweepN > 0 {
		q.Set("sample", strconv.Itoa(req.sweepN))
	}
	resp, raw, err := c.post("/sweep?"+q.Encode(), nil)
	if err != nil {
		return exitError, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return exitError, remoteErr(resp, raw)
	}
	var sr service.SweepResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return exitError, fmt.Errorf("decoding daemon response: %v", err)
	}
	if sr.State == "queued" || sr.State == "running" {
		// Follow the job's live event stream while it runs; a daemon
		// without the surface (or any stream hiccup) just falls through to
		// the poll loop below, which remains the source of truth.
		c.streamEvents(sr.ID, req.jsonOut)
	}
	for sr.State == "queued" || sr.State == "running" {
		time.Sleep(100 * time.Millisecond)
		resp, raw, err := c.get("/sweep/" + sr.ID)
		if err != nil {
			return exitError, err
		}
		if resp.StatusCode != http.StatusOK {
			return exitError, remoteErr(resp, raw)
		}
		if err := json.Unmarshal(raw, &sr); err != nil {
			return exitError, fmt.Errorf("decoding poll response: %v", err)
		}
	}
	if sr.State == "failed" {
		return exitError, fmt.Errorf("remote sweep failed: %s", sr.Error)
	}
	c.fetchServerSpans("/jobs/" + sr.ID + "/trace")
	var sweep report.Sweep
	if err := json.Unmarshal(sr.Sweep, &sweep); err != nil {
		return exitError, fmt.Errorf("decoding sweep verdict: %v", err)
	}
	if req.jsonOut {
		fmt.Fprintln(c.stdout, string(sr.Sweep))
	} else {
		c.printSweep(sweep)
	}
	switch {
	case !sweep.Clean:
		return exitRaces, nil
	case !sweep.Complete:
		return exitError, nil
	default:
		return exitClean, nil
	}
}

func (c *remoteClient) printSweep(s report.Sweep) {
	fmt.Fprintf(c.stdout, "remote sweep: %d specifications (SP+), plus one Peer-Set pass\n", s.SpecsRun)
	if len(s.ViewReads) == 0 {
		fmt.Fprintln(c.stdout, "view-read: no races detected")
	} else {
		fmt.Fprintf(c.stdout, "view-read: %d race(s):\n", len(s.ViewReads))
		for _, r := range s.ViewReads {
			fmt.Fprintf(c.stdout, "  %s\n", r)
		}
	}
	if len(s.Races) == 0 {
		fmt.Fprintln(c.stdout, "determinacy: no races under any specification")
	} else {
		fmt.Fprintf(c.stdout, "determinacy: %d distinct race(s):\n", len(s.Races))
		for _, f := range s.Races {
			fmt.Fprintf(c.stdout, "  [%s] %s\n", f.Spec, f.Race)
		}
	}
	for _, f := range s.Failures {
		fmt.Fprintf(c.stdout, "sweep failure: [%s] %s\n", f.Spec, f.Error)
	}
}

// post submits a bodyless POST (sweep submission) through the retrying
// transport; non-idempotent, so only 429/503/dial failures replay it.
func (c *remoteClient) post(path string, body io.Reader) (*http.Response, []byte, error) {
	var mkBody func() (io.Reader, error)
	if body != nil {
		mkBody = func() (io.Reader, error) { return body, nil }
	}
	return c.do(http.MethodPost, path, mkBody, false)
}

// get reads through the retrying transport; GETs are idempotent, so a
// connection cut mid-response is retried too.
func (c *remoteClient) get(path string) (*http.Response, []byte, error) {
	return c.do(http.MethodGet, path, nil, true)
}

// remoteErr folds a non-2xx response into one readable error, surfacing
// the daemon's JSON error detail and the load-shedding case specially.
func remoteErr(resp *http.Response, raw []byte) error {
	var er service.ErrorResponse
	detail := string(bytes.TrimSpace(raw))
	if err := json.Unmarshal(raw, &er); err == nil && er.Error != "" {
		detail = er.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("daemon saturated (429): %s (retry after %s)", detail, resp.Header.Get("Retry-After"))
	}
	return fmt.Errorf("daemon returned %s: %s", resp.Status, detail)
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
