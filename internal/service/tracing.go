package service

import (
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// requestRingSize bounds the /debug/requests ring: enough to see the
// recent past of a busy daemon, small enough to never matter for RAM.
const requestRingSize = 128

// extractContext reads the request's traceparent header. A missing or
// malformed header returns ok=false and the server mints its own trace
// identity — propagation is an upgrade, never a requirement.
func (s *Server) extractContext(r *http.Request) (obs.SpanContext, bool) {
	tp := r.Header.Get(obs.TraceparentHeader)
	if tp == "" {
		return obs.SpanContext{}, false
	}
	ctx, err := obs.ParseTraceparent(tp)
	if err != nil {
		return obs.SpanContext{}, false
	}
	s.metrics.tracePropagated()
	return ctx, true
}

// serverTrace builds the per-request server-side trace: parented under
// the client's context when one arrived, freshly rooted otherwise.
func (s *Server) serverTrace(r *http.Request) *obs.Trace {
	tr := obs.NewTrace()
	if ctx, ok := s.extractContext(r); ok {
		// Same trace as the client, own span identity — the server is a
		// child participant, not an alias of the caller's span.
		tr.SetContext(ctx.Child())
	} else {
		tr.SetContext(obs.NewSpanContext())
	}
	return tr
}

// spanTable is the bounded in-memory layer of span-tree retention: the
// last N encoded SpanDocs keyed by the verdict-style key, FIFO-evicted.
// The disk store (when configured) is the durable layer underneath.
type spanTable struct {
	mu    sync.Mutex
	keep  int
	order []string
	docs  map[string][]byte
}

func newSpanTable(keep int) *spanTable {
	if keep < 1 {
		keep = 128
	}
	return &spanTable{keep: keep, docs: make(map[string][]byte)}
}

func (t *spanTable) put(key string, doc []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.docs[key]; !ok {
		t.order = append(t.order, key)
		if len(t.order) > t.keep {
			delete(t.docs, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.docs[key] = doc
}

func (t *spanTable) get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc, ok := t.docs[key]
	return doc, ok
}

// saveSpans records a finished server-side span tree under key: always in
// the in-memory table, durably when a store is configured. Best effort —
// observability data must never fail the request it describes.
func (s *Server) saveSpans(key string, tr *obs.Trace, log *slog.Logger) {
	doc, err := tr.EncodeSpans("raderd")
	if err != nil {
		log.Error("span tree encoding failed", "err", err, "key", key)
		return
	}
	s.spans.put(key, doc)
	if s.store != nil {
		err := s.store.PutSpans(&store.SpanTree{
			Key: key, Traceparent: tr.Context().Traceparent(), Doc: doc,
		})
		if err != nil {
			log.Error("span tree store write failed", "err", err, "key", key)
		}
	}
	s.metrics.spanTreePersisted()
}

// lookupSpans finds a span tree by key: RAM first, then the disk store.
func (s *Server) lookupSpans(key string) ([]byte, bool) {
	if doc, ok := s.spans.get(key); ok {
		return doc, true
	}
	if s.store != nil {
		if rec, ok, _ := s.store.GetSpans(key); ok {
			s.spans.put(key, rec.Doc)
			return rec.Doc, true
		}
	}
	return nil, false
}

// writeSpanDoc renders a stored span document to the client. format=spans
// returns the raw obs.SpanDoc JSON (what rader -profile-out merges);
// the default is Chrome trace-event JSON, loadable directly in Perfetto.
func writeSpanDoc(w http.ResponseWriter, r *http.Request, doc []byte) {
	if r.URL.Query().Get("format") == "spans" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc)
		return
	}
	sd, err := obs.DecodeSpans(doc)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "decoding stored span tree: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	labels := map[string]string{}
	if sd.Traceparent != "" {
		labels["traceparent"] = sd.Traceparent
	}
	_ = obs.WriteChromeProcesses(w, []obs.Process{
		{PID: 1, Name: "raderd", Spans: sd.Records(), Labels: labels},
	})
}

// handleTraceTree serves GET /traces/{digest}/trace: the server-side span
// tree of the most recent analysis of that digest. Cache hits serve the
// tree recorded by the request that computed the verdict — the tree
// describes the computation, and a hit performed none.
func (s *Server) handleTraceTree(w http.ResponseWriter, r *http.Request, digest string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /traces/{digest}/trace")
		return
	}
	doc, ok := s.lookupSpans(digest)
	if !ok {
		writeErr(w, http.StatusNotFound,
			"no span tree recorded for digest %s (analyze it first)", digest)
		return
	}
	writeSpanDoc(w, r, doc)
}

// handleDebugRequests serves the x/net/trace-style recent-requests ring
// as JSON, newest first.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /debug/requests")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Capacity int                 `json:"capacity"`
		Requests []obs.RequestRecord `json:"requests"`
	}{Capacity: s.ring.Cap(), Requests: s.ring.Snapshot()})
}

// statusRecorder captures the response status and body size for the
// request record while passing Flush through — the SSE endpoint depends
// on the wrapped writer still implementing http.Flusher.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Record wraps a handler so each finished request is recorded once, under
// one ID: an access-log line with its status and body size, and an entry
// in the /debug/requests ring. The ring leaves out its own reads —
// watching the watcher just fills it with /debug/requests entries. Every
// route a daemon serves goes through exactly one Record: Handler applies
// it to the service routes, and cmd/raderd to the Go debug surfaces it
// mounts beside them.
func (s *Server) Record(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r)
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		id, dur := s.nextReqID("http"), time.Since(start)
		s.log.Info("request", "id", id, "method", r.Method, "path", r.URL.Path,
			"status", sr.status, "bytes", sr.bytes, "dur", dur)
		if strings.HasPrefix(r.URL.Path, "/debug/requests") {
			return
		}
		s.ring.Add(obs.RequestRecord{
			ID:          id,
			Method:      r.Method,
			Path:        r.URL.Path,
			Status:      sr.status,
			Start:       start,
			Duration:    dur,
			Traceparent: r.Header.Get(obs.TraceparentHeader),
		})
	})
}
