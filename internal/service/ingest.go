package service

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/store"
)

// handleTraces is the resumable trace ingest endpoint:
//
//	PUT  /traces/{digest}?offset=N[&complete=1]  append one chunk at N
//	HEAD /traces/{digest}                        resume offset + status
//
// A client uploads a recorded CILKTRACE stream in chunks of any size; each
// chunk is fsynced before the new offset is acknowledged, so after any
// crash — client, server, or network — a HEAD tells the client exactly
// where to resume. The final chunk carries complete=1 (or the client sends
// a zero-length complete-only PUT), which verifies the SHA-256 of every
// received byte against {digest} plus the trace's own CRC footer, then
// atomically finalizes it. Chunks stream straight to disk, so ingest
// memory is independent of trace size. The finalized trace is analyzed by
// reference with POST /analyze?digest={digest}, which reads it into
// memory once.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/traces/")
	// GET /traces/{digest}/trace is the span-tree surface, not ingest:
	// it works without a store (the span table's RAM layer backs it).
	if d, ok := strings.CutSuffix(digest, "/trace"); ok {
		if !store.ValidDigest(d) {
			writeErr(w, http.StatusBadRequest,
				"trace path must name a lowercase hex SHA-256 digest, got %q", d)
			return
		}
		s.handleTraceTree(w, r, d)
		return
	}
	if s.store == nil {
		writeErr(w, http.StatusNotImplemented,
			"trace ingest needs a store: start raderd with -store-dir")
		return
	}
	if !store.ValidDigest(digest) {
		writeErr(w, http.StatusBadRequest,
			"trace path must name a lowercase hex SHA-256 digest, got %q", digest)
		return
	}
	switch r.Method {
	case http.MethodHead:
		s.traceStatus(w, digest, true)
	case http.MethodGet:
		s.traceStatus(w, digest, false)
	case http.MethodPut:
		if s.draining.Load() {
			s.refuseDraining(w)
			return
		}
		s.tracePut(w, r, digest)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "PUT or HEAD /traces/{digest}")
	}
}

// traceStatus answers HEAD (headers only) and GET (headers + JSON body)
// with the upload's durable state.
func (s *Server) traceStatus(w http.ResponseWriter, digest string, headOnly bool) {
	resp := TraceStatusResponse{Digest: digest}
	if s.store.HasTrace(digest) {
		resp.Complete = true
	} else {
		resp.Offset = s.store.PartialOffset(digest)
	}
	w.Header().Set("Upload-Offset", strconv.FormatInt(resp.Offset, 10))
	w.Header().Set("Upload-Complete", strconv.FormatBool(resp.Complete))
	if headOnly {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// tracePut appends one chunk (and optionally commits). Error mapping:
//
//	409 offset mismatch  — Upload-Offset header carries the truth to resume
//	413 chunk too large  — per-chunk MaxUploadBytes bound
//	422 commit rejected  — content hashes wrong or fails trace verification
func (s *Server) tracePut(w http.ResponseWriter, r *http.Request, digest string) {
	q := r.URL.Query()
	offset := int64(0)
	if o := q.Get("offset"); o != "" {
		v, err := strconv.ParseInt(o, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", o)
			return
		}
		offset = v
	}
	complete := q.Get("complete") == "1" || q.Get("complete") == "true"
	log := s.log.With("req", s.nextReqID("ingest"), "digest", digest)

	if s.store.HasTrace(digest) {
		// Content-addressed idempotence: the trace already exists, so any
		// re-upload — whatever its offset — is a no-op success.
		_, _ = io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
		log.Info("ingest chunk for already-stored trace ignored")
		w.Header().Set("Upload-Offset", "0")
		writeJSON(w, http.StatusOK, TraceStatusResponse{Digest: digest, Complete: true})
		return
	}

	// Each chunk is bounded by MaxUploadBytes, but the trace itself is
	// not: the whole point of chunking is that total size outruns any
	// single request bound without outrunning RAM.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	newOffset, err := s.store.AppendPartial(digest, offset, body)
	if err != nil {
		var oe *store.OffsetError
		if errors.As(err, &oe) {
			w.Header().Set("Upload-Offset", strconv.FormatInt(oe.Want, 10))
			log.Warn("ingest offset conflict", "want", oe.Want, "got", oe.Got)
			writeErr(w, http.StatusConflict,
				"offset mismatch: server has %d bytes, client claimed %d; resume from Upload-Offset", oe.Want, oe.Got)
			return
		}
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			log.Warn("ingest chunk too large", "limit", s.cfg.MaxUploadBytes)
			writeErr(w, http.StatusRequestEntityTooLarge,
				"chunk exceeds %d bytes; split it and resume from Upload-Offset", s.cfg.MaxUploadBytes)
			return
		}
		log.Error("ingest append failed", "err", err)
		writeErr(w, http.StatusInternalServerError, "appending chunk: %v", err)
		return
	}
	s.metrics.ingested(newOffset - offset)
	w.Header().Set("Upload-Offset", strconv.FormatInt(newOffset, 10))

	if !complete {
		log.Info("ingest chunk accepted", "offset", offset, "newOffset", newOffset)
		writeJSON(w, http.StatusAccepted, TraceStatusResponse{Digest: digest, Offset: newOffset})
		return
	}
	if err := s.store.CommitPartial(digest); err != nil {
		// The upload was complete but wrong: digest mismatch or a trace
		// that fails integrity verification. The partial is quarantined
		// server-side; the client must restart from offset 0.
		log.Warn("ingest commit rejected", "err", err)
		w.Header().Set("Upload-Offset", "0")
		writeErr(w, http.StatusUnprocessableEntity, "finalizing trace: %v", err)
		return
	}
	log.Info("ingest committed", "bytes", newOffset)
	writeJSON(w, http.StatusCreated, TraceStatusResponse{Digest: digest, Offset: newOffset, Complete: true})
}
