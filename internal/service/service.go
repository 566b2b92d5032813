// Package service is the analysis daemon behind cmd/raderd: an HTTP
// front-end that accepts recorded CILKTRACE streams (or names a built-in
// program), runs any detector configuration server-side on a bounded
// worker pool, and memoizes verdicts in an LRU cache addressed by a strong
// content digest. It is the serving half of the paper's §8
// record-once/analyze-many workflow: instrumented runs happen wherever the
// program lives, while detection — the expensive, repeatable half — is
// centralized, cached, and admission-controlled.
//
// Endpoints:
//
//	POST /analyze     trace bytes in the body, or ?prog=<name>[&scale=][&spec=];
//	                  ?detector= selects the analysis (default sp+).
//	                  Synchronous; sheds load with 429 when saturated.
//	POST /sweep       ?prog=<name>[&scale=][&workers=][&sample=] — the §7
//	                  coverage sweep as an asynchronous job; returns an ID
//	                  to poll. workers overrides the scheduler width for
//	                  this job (same verdict, different wall time); sample
//	                  caps the family at that many coverage-guided
//	                  specifications and is part of the verdict (and the
//	                  cache key).
//	GET  /sweep/{id}  job state, then the sweep verdict document.
//	PUT  /traces/{digest}  chunked resumable trace ingest (?offset=,
//	                  &complete=1); HEAD reports the resume offset.
//	GET  /healthz     liveness (200 for the process's whole life).
//	GET  /readyz      readiness (503 once draining; flip order matters:
//	                  readyz goes dark first, healthz last).
//	GET  /metrics     Prometheus text exposition.
//
// Capacity model: at most Workers analyses run concurrently and at most
// QueueDepth more wait; everything beyond that is rejected at admission
// with 429 before any work is done. Each job runs under the rader event
// budget and deadline guards, so one pathological trace cannot wedge a
// worker forever. Cache keys are digest × detector × spec: two uploads
// with the same bytes, or two requests for the same program
// configuration, pay for one analysis.
//
// Durability: with StoreDir configured, verdicts and uploaded traces
// live in a disk-backed content-addressed store (internal/store); the
// in-memory LRU becomes a read-through layer over it, sweep jobs are
// journaled and re-enqueued after a crash, and restarts serve verdicts
// byte-identical to an uninterrupted run. Without StoreDir everything is
// in-memory, exactly as before.
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analyze"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config sizes the daemon. Zero values get serviceable defaults.
type Config struct {
	// Workers caps concurrent analyses (default 4).
	Workers int
	// QueueDepth caps admitted-but-waiting requests (default 2×Workers).
	// Admission beyond Workers+QueueDepth is shed with 429.
	QueueDepth int
	// CacheEntries caps the result cache's entry count (default 256).
	CacheEntries int
	// CacheBytes caps the result cache's resident bytes (default
	// 64 MiB). The cache is bounded by whichever limit binds first;
	// verdict documents vary from hundreds of bytes to megabytes, so the
	// byte bound is the one that protects RAM.
	CacheBytes int64
	// StoreDir, when non-empty, roots the disk-backed content-addressed
	// trace + verdict store. Verdicts survive restarts, uploads become
	// resumable, and sweep jobs are journaled for crash re-enqueue. Use
	// Open (not New) to surface store-initialization errors.
	StoreDir string
	// EventBudget bounds the event stream of each named-program run and
	// of each sweep specification (default 50M; <0 means unlimited).
	EventBudget int64
	// JobTimeout bounds each named-program run and each sweep, timed from
	// the start of the run, so time spent queued does not count (default
	// 60s). Replays of uploaded traces run under neither limit.
	JobTimeout time.Duration
	// MaxUploadBytes bounds an uploaded trace (default 64 MiB).
	MaxUploadBytes int64
	// SweepWorkers is the per-sweep parallelism (default Workers).
	SweepWorkers int
	// KeepJobs bounds retained finished sweep jobs (default 64).
	KeepJobs int
	// Programs adds (or overrides) named programs on top of the built-in
	// catalogue of corpus.Lookup. Tests use this seam.
	Programs map[string]corpus.Program
	// Logger receives structured request logs: one access line per HTTP
	// request, under the ID of its /debug/requests entry, and lifecycle
	// lines per analyze or sweep request, under their own IDs. Nil
	// discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.CacheBytes < 1 {
		c.CacheBytes = 64 << 20
	}
	if c.EventBudget == 0 {
		c.EventBudget = 50_000_000
	}
	if c.EventBudget < 0 {
		c.EventBudget = 0
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = c.Workers
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the analysis service. Create with New (or Open when a
// StoreDir is configured), mount Handler.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *resultCache
	metrics  *metrics
	jobs     *jobTable
	store    *store.Store
	recovery *store.Recovery
	log      *slog.Logger
	reqID    atomic.Uint64
	// spans retains recent server-side span trees (RAM layer; the store,
	// when configured, is the durable layer); ring holds the last N
	// request summaries for /debug/requests.
	spans *spanTable
	ring  *obs.RequestRing
	// bootID distinguishes this process's journal records from a prior
	// incarnation's, so re-used sweep-N table IDs never collide with a
	// pending journal entry.
	bootID string
	// draining flips once, at the start of graceful shutdown: /readyz
	// goes 503 and admission is refused, while /healthz stays 200 until
	// the process exits — the readiness-before-liveness contract load
	// balancers rely on.
	draining  atomic.Bool
	recovered atomic.Uint64
}

// New builds a Server from cfg. It panics if the disk store cannot be
// initialized — use Open to handle that error (a daemon with a bad
// -store-dir must fail loudly, not limp along non-durable).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server from cfg, initializing (and crash-recovering)
// the disk store when cfg.StoreDir is set: orphaned temp files are
// removed, torn or corrupt store files are quarantined, and journaled
// sweep jobs that never finished are re-enqueued on the worker pool.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool := newPool(cfg.Workers, cfg.QueueDepth)
	cache := newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	jobs := newJobTable(cfg.KeepJobs)
	var nonce [4]byte
	_, _ = rand.Read(nonce[:])
	s := &Server{
		cfg:    cfg,
		pool:   pool,
		cache:  cache,
		jobs:   jobs,
		log:    cfg.Logger,
		bootID: hex.EncodeToString(nonce[:]),
		spans:  newSpanTable(requestRingSize),
		ring:   obs.NewRequestRing(requestRingSize),
	}
	if cfg.StoreDir != "" {
		st, rec, err := store.Open(cfg.StoreDir, store.Options{
			VerifyTrace: trace.VerifyIntegrity,
		})
		if err != nil {
			return nil, err
		}
		s.store, s.recovery = st, rec
	}
	s.metrics = newMetrics(pool, cache, jobs, s.store, &s.recovered, s.ring)
	if s.recovery != nil {
		s.requeueRecovered(s.recovery.PendingJobs)
	}
	return s, nil
}

// RecoveryBanner returns the startup recovery summary ("" without a
// store) for the daemon's boot log line.
func (s *Server) RecoveryBanner() string {
	if s.recovery == nil {
		return ""
	}
	return s.recovery.String()
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain flips the server into draining mode: /readyz answers 503
// and new work is refused at admission. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins the drain and waits until every admitted request and
// background job has left the system, or ctx expires. In-flight sweep
// jobs that do not finish in time stay journaled as pending (when a
// store is configured) and re-run on the next start — the drain never
// abandons durable work, it only stops waiting for it.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.pool.admitted() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d requests still in flight: %w", s.pool.admitted(), ctx.Err())
		case <-tick.C:
		}
	}
}

// requeueRecovered re-enqueues journaled-but-unfinished sweep jobs from
// a previous incarnation. Each reuses its journal ID, so finishing this
// time marks the original record done; an unknown program (a journal
// from an older build) is marked failed rather than retried forever.
func (s *Server) requeueRecovered(pending []store.JobRecord) {
	for _, jr := range pending {
		jr := jr
		prog, identity, err := s.lookup(jr.Prog, jr.Scale)
		log := s.log.With("req", s.nextReqID("recover"), "prog", jr.Prog, "journal", jr.ID)
		if err != nil {
			log.Warn("recovered job names unknown program; marking failed", "err", err)
			_ = s.store.JournalJob(store.JobRecord{ID: jr.ID, Prog: jr.Prog, Scale: jr.Scale, Sample: jr.Sample, State: store.JobFailed})
			continue
		}
		if !s.pool.tryAdmit() {
			// More recovered jobs than capacity: leave the rest pending;
			// they re-run on a later start (or a bigger pool).
			log.Warn("no capacity to re-enqueue recovered job; leaving journaled")
			continue
		}
		s.recovered.Add(1)
		job := s.jobs.add(jr.Prog)
		job.setSpansKey(sweepKey(programDigest(identity), jr.Sample))
		log.Info("re-enqueued recovered sweep job", "job", job.view().ID)
		// A recovered job has no client request to inherit a traceparent
		// from; it roots a fresh trace. It re-runs at the configured
		// scheduler width — workers never change the verdict.
		tr := obs.NewTrace()
		tr.SetContext(obs.NewSpanContext())
		go s.runSweep(job, prog, identity, 0, jr, tr, log)
	}
}

// nextReqID mints a per-request log tag, unique within this Server.
func (s *Server) nextReqID(kind string) string {
	return fmt.Sprintf("%s-%d", kind, s.reqID.Add(1))
}

// MetricsSnapshot returns the current metric series as a flat map, the
// form cmd/raderd publishes on /debug/vars.
func (s *Server) MetricsSnapshot() map[string]any { return s.metrics.snapshot() }

// retryAfterHint estimates, in whole seconds, how long a shed client
// should wait before retrying: roughly one "drain interval" per queued
// request per worker, at least 1 and capped so a deep queue never tells
// clients to go away for minutes.
func retryAfterHint(queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	hint := (queued + workers) / workers // ceil(queued/workers), min 1
	if hint < 1 {
		hint = 1
	}
	if hint > 30 {
		hint = 30
	}
	return hint
}

// shed rejects a request with 429 plus a computed Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, format string, a ...any) {
	s.metrics.shed()
	queued := s.pool.admitted() - s.pool.running()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterHint(queued, s.pool.workers())))
	writeErr(w, http.StatusTooManyRequests, format, a...)
}

// refuseDraining answers a request that arrived after graceful shutdown
// began: 503 (not 429 — the condition is terminal for this process, the
// client should go elsewhere) with a short Retry-After for clients
// behind a balancer that will re-resolve.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "draining: not accepting new work")
}

// Handler returns the service's HTTP routes, wrapped by Record.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/sweep", s.handleSweepSubmit)
	mux.HandleFunc("/sweep/", s.handleSweepPoll)
	mux.HandleFunc("/jobs/", s.handleJobs)
	mux.HandleFunc("/traces/", s.handleTraces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	return s.Record(mux)
}

// CacheHits exposes the hit counter for tests and ops tooling.
func (s *Server) CacheHits() uint64 { return s.metrics.snapshotHits() }

// Admitted reports requests currently in the system (running + queued).
func (s *Server) Admitted() int { return s.pool.admitted() }

// Running reports analyses executing right now.
func (s *Server) Running() int { return s.pool.running() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, a ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, a...)})
}

// analyzeUnit is one fully-resolved analysis request: either an uploaded
// or stored trace replay or a live run of a named program. run records its
// phases on the per-request server trace it is handed (nil-safe
// throughout, per the obs contract).
type analyzeUnit struct {
	digest   string
	detector rader.DetectorName
	specStr  string // "" for replays
	elide    bool   // static elision pre-pass requested
	run      func(tr *obs.Trace) (*analyze.Result, error)
}

// key is the unit's cache key. Elision leaves the verdict document
// byte-identical, so the key never mentions it.
func (u *analyzeUnit) key() string {
	return u.digest + "|" + string(u.detector) + "|" + u.specStr
}

// resolveAnalyze parses an /analyze request into a unit without running
// anything. Returns a non-nil unit or writes the error response itself.
func (s *Server) resolveAnalyze(w http.ResponseWriter, r *http.Request) *analyzeUnit {
	q := r.URL.Query()
	detStr := q.Get("detector")
	if detStr == "" {
		detStr = string(rader.SPPlus)
	}
	det, err := rader.ParseDetector(detStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	elideOn := q.Get("elide") == "1"

	if name := q.Get("prog"); name != "" {
		if elideOn {
			writeErr(w, http.StatusBadRequest,
				"elide=1 applies to recorded traces; program runs (?prog=) are not elidable")
			return nil
		}
		prog, identity, err := s.lookup(name, q.Get("scale"))
		if err != nil {
			writeErr(w, http.StatusNotFound, "%v", err)
			return nil
		}
		specStr := q.Get("spec")
		if specStr == "" {
			specStr = "none"
		}
		spec, err := sched.Parse(specStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		return &analyzeUnit{
			digest:   programDigest(identity),
			detector: det,
			specStr:  sched.Format(spec),
			run: func(tr *obs.Trace) (*analyze.Result, error) {
				res, _, err := analyze.Run(prog.Factory(), rader.Config{
					Detector:    det,
					Spec:        spec,
					EventBudget: s.cfg.EventBudget,
					Timeout:     s.cfg.JobTimeout,
					Trace:       tr,
				})
				return res, err
			},
		}
	}

	// A previously ingested trace, analyzed by reference: the body stays
	// empty and the trace is read from the store, so a large trace never
	// has to transit a request body.
	if digest := q.Get("digest"); digest != "" {
		if s.store == nil {
			writeErr(w, http.StatusNotImplemented,
				"analyze-by-digest needs a store (-store-dir); upload the trace in the body instead")
			return nil
		}
		if !s.store.HasTrace(digest) {
			writeErr(w, http.StatusNotFound,
				"no stored trace %s (upload it via PUT /traces/{digest})", digest)
			return nil
		}
		return &analyzeUnit{
			digest:   digest,
			detector: det,
			elide:    elideOn,
			run: func(tr *obs.Trace) (*analyze.Result, error) {
				return s.analyzeStored(digest, analyze.Options{Detector: det, Elide: elideOn, Trace: tr})
			},
		}
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"reading upload (limit %d bytes): %v", s.cfg.MaxUploadBytes, err)
		return nil
	}
	if len(data) == 0 {
		writeErr(w, http.StatusBadRequest,
			"empty request: upload a CILKTRACE stream or name a built-in with ?prog=")
		return nil
	}
	digest, _ := trace.DigestOf(bytes.NewReader(data)) // in-memory: cannot fail
	return &analyzeUnit{
		digest:   digest.String(),
		detector: det,
		elide:    elideOn,
		run: func(tr *obs.Trace) (*analyze.Result, error) {
			return analyze.Trace(data, analyze.Options{Detector: det, Elide: elideOn, Trace: tr})
		},
	}
}

// storeLookup is the read-through path: on a RAM miss, a verified
// verdict record from the disk store rehydrates the cache. Returns nil
// on miss (or without a store).
func (s *Server) storeLookup(key string) *cached {
	if s.store == nil {
		return nil
	}
	rec, ok, err := s.store.GetVerdict(key)
	if err != nil || !ok {
		return nil
	}
	entry := &cached{digest: rec.Digest, report: rec.Report, clean: rec.Clean}
	s.cache.put(key, entry)
	return entry
}

// storePersist durably writes one verdict under its cache key. Best
// effort: a store write failure degrades durability, not the response.
func (s *Server) storePersist(key, digest, detector, spec string, clean bool, doc []byte, log *slog.Logger) {
	if s.store == nil {
		return
	}
	err := s.store.PutVerdict(&store.Verdict{
		Key: key, Digest: digest, Detector: detector, Spec: spec,
		Clean: clean, Report: doc,
	})
	if err != nil {
		log.Error("verdict store write failed", "err", err, "key", key)
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /analyze")
		return
	}
	if s.draining.Load() {
		s.refuseDraining(w)
		return
	}
	unit := s.resolveAnalyze(w, r)
	if unit == nil {
		return
	}
	id := s.nextReqID("analyze")
	log := s.log.With("req", id, "detector", string(unit.detector), "digest", unit.digest)
	hit, ok := s.cache.get(unit.key())
	if !ok {
		if hit = s.storeLookup(unit.key()); hit != nil {
			ok = true
			log.Info("analyze rehydrated from store", "clean", hit.clean)
		}
	}
	if ok {
		s.metrics.hit()
		log.Info("analyze served from cache", "clean", hit.clean,
			"cacheHit", true, "elide", unit.elide)
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			Digest:   hit.digest,
			Detector: string(unit.detector),
			Spec:     unit.specStr,
			Cached:   true,
			Clean:    hit.clean,
			Report:   hit.report,
		})
		return
	}
	s.metrics.miss()

	if !s.pool.tryAdmit() {
		log.Warn("analyze shed", "running", s.pool.running(),
			"queued", s.pool.admitted()-s.pool.running())
		s.shed(w, "saturated: %d analyses running, %d queued; retry later",
			s.pool.running(), s.pool.admitted()-s.pool.running())
		return
	}
	defer s.pool.unadmit()
	// The per-request server trace: parented under the client's
	// traceparent when one arrived, so its spans join the client's
	// distributed trace; persisted under the digest when the analysis
	// succeeds.
	tr := s.serverTrace(r)
	queueStart := time.Now()
	qspan := tr.Start("queue")
	if err := s.pool.acquire(r.Context()); err != nil {
		qspan.Arg("error", err.Error()).End()
		log.Warn("analyze cancelled while queued", "err", err)
		writeErr(w, http.StatusServiceUnavailable, "cancelled while queued: %v", err)
		return
	}
	qspan.End()
	defer s.pool.release()
	s.metrics.observePhase(phaseQueue, time.Since(queueStart))

	start := time.Now()
	rspan := tr.Start("run").Arg("detector", string(unit.detector))
	res, err := unit.run(tr)
	rspan.End()
	dur := time.Since(start)
	s.metrics.observePhase(phaseRun, dur)
	if err != nil {
		s.metrics.fail()
		log.Error("analyze failed", "err", err, "dur", dur)
		// The trace or program was accepted but analysis failed — a
		// client-side artifact problem (truncated upload, budget blowout),
		// not a server fault. Nothing is cached: a failed validation must
		// be re-validated on the next upload, never served from the LRU.
		writeErr(w, http.StatusUnprocessableEntity, "analysis failed: %v", err)
		return
	}
	encodeStart := time.Now()
	espan := tr.Start("encode")
	raw, err := res.Doc.Marshal()
	espan.End()
	s.metrics.observePhase(phaseEncode, time.Since(encodeStart))
	if err != nil {
		s.metrics.fail()
		log.Error("analyze report encoding failed", "err", err)
		writeErr(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	s.metrics.done(string(unit.detector), dur, res.Events)
	s.metrics.elide(res.ElidedEvents, res.ElidedBytes)
	log.Info("analyze done", "dur", dur, "events", res.Events, "clean", res.Clean,
		"cacheHit", false, "elide", unit.elide)
	s.saveSpans(unit.digest, tr, log)
	entry := &cached{digest: unit.digest, report: raw, clean: res.Clean}
	s.cache.put(unit.key(), entry)
	s.storePersist(unit.key(), unit.digest, string(unit.detector), unit.specStr, res.Clean, raw, log)
	switch doc := res.Doc.(type) {
	case *report.Report:
		s.metrics.depa(doc.Parallel)
	case *report.Multi:
		// An all-detectors pass also seeds one cache entry per detector,
		// so a later single-detector request for the same digest and spec
		// is a hit — one upload, one decode, four cache entries. Each
		// sub-report is built exactly as a standalone request builds it.
		for _, sub := range doc.Reports {
			sraw, err := sub.Marshal()
			if err != nil {
				continue
			}
			skey := unit.digest + "|" + sub.Detector + "|" + unit.specStr
			s.cache.put(skey, &cached{digest: unit.digest, report: sraw, clean: sub.Clean})
			s.storePersist(skey, unit.digest, sub.Detector, unit.specStr, sub.Clean, sraw, log)
		}
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Digest:     entry.digest,
		Detector:   string(unit.detector),
		Spec:       unit.specStr,
		Cached:     false,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Clean:      entry.clean,
		Report:     entry.report,
	})
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /sweep, poll GET /sweep/{id}")
		return
	}
	if s.draining.Load() {
		s.refuseDraining(w)
		return
	}
	name := r.URL.Query().Get("prog")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "sweep needs ?prog= (sweeps rerun the program; traces cannot be swept)")
		return
	}
	scale := r.URL.Query().Get("scale")
	prog, identity, err := s.lookup(name, scale)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	workers, err := queryInt(r, "workers")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sample, err := queryInt(r, "sample")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// workers only changes how fast the verdict is computed, so it stays
	// out of the cache key; sample changes which specifications run, so
	// it is part of the verdict's identity.
	key := sweepKey(programDigest(identity), sample)
	log := s.log.With("req", s.nextReqID("sweep"), "prog", name)
	hit, ok := s.cache.get(key)
	if !ok {
		if hit = s.storeLookup(key); hit != nil {
			ok = true
		}
	}
	if ok {
		s.metrics.hit()
		job := s.jobs.add(name)
		// A cache-served job ran nothing, so it has no span tree of its
		// own; the key points GET /jobs/{id}/trace at the tree persisted
		// by the sweep that computed the verdict.
		job.setSpansKey(key)
		job.finish(hit.report, nil)
		log.Info("sweep served from cache", "job", job.view().ID)
		writeJSON(w, http.StatusOK, job.view())
		return
	}
	s.metrics.miss()
	if !s.pool.tryAdmit() {
		log.Warn("sweep shed")
		s.shed(w, "saturated; retry later")
		return
	}
	job := s.jobs.add(name)
	job.setSpansKey(key)
	log = log.With("job", job.view().ID)
	// The job's trace is rooted now, under the submitting client's
	// traceparent when one arrived — the sweep runs after this request
	// returns 202, but its spans still join the client's trace.
	tr := s.serverTrace(r)
	// Journal the job as queued before acknowledging it: if the process
	// dies between the 202 and the verdict, the next start re-enqueues it.
	// The journal ID carries this boot's nonce so the sweep-N table IDs,
	// which restart from 1 every boot, never collide across incarnations.
	jr := store.JobRecord{ID: s.bootID + "-" + job.view().ID, Prog: name, Scale: scale, Sample: sample, State: store.JobQueued}
	if s.store != nil {
		if err := s.store.JournalJob(jr); err != nil {
			log.Error("job journal write failed; job will not survive a crash", "err", err)
			jr.ID = "" // skip the terminal record too
		}
	}
	go s.runSweep(job, prog, identity, workers, jr, tr, log)
	writeJSON(w, http.StatusAccepted, job.view())
}

// lookup resolves a program name for /analyze?prog=, /sweep?prog= and
// journal recovery: a Config.Programs entry first, then corpus.Lookup.
func (s *Server) lookup(name, scale string) (corpus.Program, string, error) {
	if p, ok := s.cfg.Programs[name]; ok {
		return p, "program\x00" + name, nil
	}
	return corpus.Lookup(name, scale)
}

// programDigest converts a program identity into the same hex-digest
// shape uploaded traces get, so the cache has one key scheme.
func programDigest(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return hex.EncodeToString(sum[:])
}

// sweepKey is the cache/store key of a sweep verdict: the program digest
// plus any sampling cap, which selects a different (smaller) verdict.
func sweepKey(digest string, sample int) string {
	key := digest + "|sweep"
	if sample > 0 {
		key += "|sample=" + strconv.Itoa(sample)
	}
	return key
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("?%s= must be a non-negative integer, got %q", name, raw)
	}
	return v, nil
}

// runSweep executes one admitted sweep job to completion: it acquires a
// worker slot, runs the §7 coverage sweep, memoizes complete verdicts in
// both cache layers, and writes the job's terminal journal record. It is
// the shared body behind fresh submissions and crash-recovered re-runs —
// jr is the journal record to close out (jr.ID == "" means unjournaled)
// and carries the sampling cap; workers (0 = configured default) is this
// job's scheduler width, which never changes the verdict.
func (s *Server) runSweep(job *sweepJob, prog corpus.Program, identity string, workers int, jr store.JobRecord, tr *obs.Trace, log *slog.Logger) {
	defer s.pool.unadmit()
	// journalTerminal closes the journal record; without it the job would
	// re-run on every restart forever.
	journalTerminal := func(state string) {
		if s.store == nil || jr.ID == "" {
			return
		}
		if err := s.store.JournalJob(store.JobRecord{ID: jr.ID, Prog: jr.Prog, Scale: jr.Scale, Sample: jr.Sample, State: state}); err != nil {
			log.Error("job journal terminal write failed", "err", err)
		}
	}
	// The job outlives the submitting request on purpose — clients
	// poll for it — so it waits on the background context, not r's.
	qspan := tr.Start("queue")
	if err := s.pool.acquire(context.Background()); err != nil {
		qspan.Arg("error", err.Error()).End()
		log.Warn("sweep cancelled while queued", "err", err)
		job.finish(nil, fmt.Errorf("cancelled while queued: %w", err))
		journalTerminal(store.JobFailed)
		return
	}
	qspan.End()
	defer s.pool.release()
	job.set(stateRunning)
	start := time.Now()
	rspan := tr.Start("run").Arg("prog", job.prog)
	if workers < 1 {
		workers = s.cfg.SweepWorkers
	}
	cr := rader.Sweep(prog.Factory, rader.SweepOptions{
		Workers:     workers,
		SampleSpecs: jr.Sample,
		EventBudget: s.cfg.EventBudget,
		Timeout:     s.cfg.JobTimeout,
		Trace:       tr,
		OnProgress:  job.progress.Publish,
	})
	rspan.End()
	espan := tr.Start("encode")
	raw, err := report.FromCoverage(cr).Marshal()
	espan.End()
	if err != nil {
		s.metrics.fail()
		log.Error("sweep report encoding failed", "err", err)
		job.finish(nil, err)
		journalTerminal(store.JobFailed)
		return
	}
	s.metrics.done("sweep", time.Since(start), 0)
	s.metrics.sweep(cr.Stats)
	log.Info("sweep done", "dur", time.Since(start),
		"specs", cr.SpecsRun, "clean", cr.Clean(), "complete", cr.Complete(),
		"snapshotHits", cr.Stats.SnapshotHits, "eventsSkipped", cr.Stats.EventsSkipped)
	// Only complete sweeps are cacheable: a sweep degraded by a
	// deadline or budget abort reports Failures instead of verdicts
	// for some specifications, and serving that from the cache would
	// freeze the degradation forever. Incomplete results still go to
	// the submitting job; the next submission reruns the sweep.
	if cr.Complete() {
		digest := programDigest(identity)
		key := sweepKey(digest, jr.Sample)
		s.cache.put(key, &cached{digest: digest, report: raw, clean: cr.Clean()})
		s.storePersist(key, digest, "sweep", "", cr.Clean(), raw, log)
		// The span tree persists under the same key, so later cache-served
		// jobs (which run nothing) can still serve the computing sweep's
		// trace via their spansKey.
		s.saveSpans(key, tr, log)
	}
	if doc, err := tr.EncodeSpans("raderd"); err == nil {
		job.setSpans(doc)
	}
	job.finish(raw, nil)
	journalTerminal(store.JobDone)
}

func (s *Server) handleSweepPoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /sweep/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/sweep/")
	job, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such sweep job %q (finished jobs are retained up to a bound)", id)
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while serving, 503 once
// draining. It flips before /healthz ever does — a balancer stops
// routing new work here while in-flight requests finish behind a
// still-live process.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// analyzeStored analyzes a store-resident trace. Ingest wrote it to disk
// in constant memory, chunk by chunk; analysis reads it into memory once,
// because the replay engine decodes from one contiguous buffer.
func (s *Server) analyzeStored(digest string, opts analyze.Options) (*analyze.Result, error) {
	rc, _, err := s.store.OpenTrace(digest)
	if err != nil {
		return nil, fmt.Errorf("opening stored trace %s: %w", digest, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("reading stored trace %s: %w", digest, err)
	}
	return analyze.Trace(data, opts)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w)
}
