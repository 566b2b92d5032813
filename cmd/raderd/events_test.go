package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// flushCounter is a ResponseWriter that counts the flushes reaching it.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// SSE progress reaches the client only if every wrapper between the
// listener and /jobs/{id}/events passes Flush through. Serve the events of
// a finished job through the handler run serves (debugMux, the one
// request-recording wrapper included) and count the flushes that arrive.
func TestDaemonEventsFlushThrough(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	h := debugMux(srv)
	serve := func(w http.ResponseWriter, method, path string) {
		h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
	}
	rec := httptest.NewRecorder()
	serve(rec, http.MethodPost, "/sweep?prog=fig1")
	var sr service.SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatalf("sweep submit: %d %v\n%s", rec.Code, err, rec.Body)
	}
	for deadline := time.Now().Add(10 * time.Second); sr.State != "done"; {
		if sr.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %+v", sr)
		}
		time.Sleep(10 * time.Millisecond)
		rec = httptest.NewRecorder()
		serve(rec, http.MethodGet, "/sweep/"+sr.ID)
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("sweep poll: %v\n%s", err, rec.Body)
		}
	}
	fc := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	serve(fc, http.MethodGet, "/jobs/"+sr.ID+"/events")
	if fc.flushes == 0 {
		t.Fatalf("no flush reached the client; events body:\n%s", fc.Body)
	}
	if !strings.Contains(fc.Body.String(), "event: end") {
		t.Fatalf("events stream has no terminal event:\n%s", fc.Body)
	}
}
