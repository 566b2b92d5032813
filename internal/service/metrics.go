package service

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/store"
)

// knownDetectors is the closed label set for per-detector series. Detector
// names reaching metrics.done are already validated by rader.ParseDetector
// (plus the internal "sweep" pseudo-detector), but the exposition guards
// its own cardinality anyway: a future call site forwarding raw client
// input must not be able to mint unbounded label values.
var knownDetectors = map[string]bool{
	"none": true, "empty": true, "peer-set": true, "sp-bags": true,
	"sp+": true, "offset-span": true, "english-hebrew": true, "depa": true,
	"all": true, "sweep": true,
}

// sanitizeDetector folds unknown detector names into "other".
func sanitizeDetector(d string) string {
	if knownDetectors[d] {
		return d
	}
	return "other"
}

// Request phases instrumented by raderd_phase_latency_seconds.
const (
	phaseQueue  = "queue"  // admission to worker-slot acquisition
	phaseRun    = "run"    // the analysis itself
	phaseEncode = "encode" // marshaling the verdict document
)

// metrics is the daemon's instrumentation, an obs.Registry rendering the
// same Prometheus exposition the hand-rolled implementation produced
// (family order, label shapes and value formats are pinned by
// TestMetricsExpositionFormat). Scrape-time gauges — queue depth, worker
// occupancy, cache residency, sweep-job states — are registered as
// GaugeFuncs over state owned by the pool, cache and job table.
type metrics struct {
	reg *obs.Registry

	jobsDone    *obs.Counter
	jobsFailed  *obs.Counter
	jobsShed    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	events      *obs.Counter
	lastEPS     *obs.Gauge
	ingestBytes *obs.Counter

	sweepSnapHits   *obs.Counter
	sweepSnapMisses *obs.Counter
	sweepSkipped    *obs.Counter
	sweepPages      *obs.Counter
	sweepSteals     *obs.Counter
	sweepHandoffs   *obs.Counter
	sweepPooled     *obs.Gauge

	depaMerges   *obs.Counter
	depaFastPath *obs.Gauge

	elideEvents *obs.Counter
	elideBytes  *obs.Counter

	tracesPropagated *obs.Counter
	spanTrees        *obs.Counter
	eventStreams     *obs.Counter

	phase map[string]*obs.Histogram
}

// newMetrics builds the registry. The pool/cache/jobs closures feed the
// scrape-time gauges; registration order fixes the exposition order. st
// may be nil (no -store-dir): the store families are then simply absent,
// so a non-durable daemon's exposition is unchanged from before.
func newMetrics(pool *pool, cache *resultCache, jobs *jobTable, st *store.Store, recovered *atomic.Uint64, ring *obs.RequestRing) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.jobsDone = reg.Counter("raderd_jobs_total",
		"Analysis requests by final disposition.", `state="done"`)
	m.jobsFailed = reg.Counter("raderd_jobs_total",
		"Analysis requests by final disposition.", `state="failed"`)
	m.jobsShed = reg.Counter("raderd_jobs_total",
		"Analysis requests by final disposition.", `state="rejected"`)

	reg.GaugeFunc("raderd_queue_depth",
		"Requests admitted but waiting for a worker.", "", func() float64 {
			if q := pool.admitted() - pool.running(); q > 0 {
				return float64(q)
			}
			return 0
		})
	reg.GaugeFunc("raderd_workers_busy", "Analyses executing now.", "",
		func() float64 { return float64(pool.running()) })
	reg.GaugeFunc("raderd_workers", "Configured worker-pool size.", "",
		func() float64 { return float64(pool.workers()) })

	m.cacheHits = reg.Counter("raderd_cache_hits_total",
		"Analyses served from the digest-addressed cache.", "")
	m.cacheMisses = reg.Counter("raderd_cache_misses_total",
		"Analyses that had to run.", "")
	reg.GaugeFunc("raderd_cache_hit_ratio", "Hits over lookups since start.", "",
		func() float64 {
			hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
			if lookups := hits + misses; lookups > 0 {
				return float64(hits) / float64(lookups)
			}
			return 0
		})
	reg.GaugeFunc("raderd_cache_entries", "Resident cache entries.", "",
		func() float64 { return float64(cache.len()) })
	reg.GaugeFunc("raderd_cache_bytes", "Resident cache bytes (the LRU's byte bound binds on this).", "",
		func() float64 { return float64(cache.size()) })

	m.events = reg.Counter("raderd_events_total",
		"Trace events consumed by completed analyses.", "")
	m.lastEPS = reg.Gauge("raderd_events_per_second",
		"Throughput of the most recent event-counted analysis.", "")
	m.ingestBytes = reg.Counter("raderd_ingest_bytes_total",
		"Trace bytes accepted over PUT /traces/{digest}.", "")

	for _, st := range []string{"queued", "running", "done", "failed"} {
		st := st
		reg.GaugeFunc("raderd_sweep_jobs", "Coverage-sweep jobs by state.",
			obs.Label("state", st),
			func() float64 { return float64(jobs.states()[st]) })
	}

	m.sweepSnapHits = reg.Counter("raderd_sweep_snapshot_hits_total",
		"Prefix-sharing sweep units seeded from a detector snapshot.", "")
	m.sweepSnapMisses = reg.Counter("raderd_sweep_snapshot_misses_total",
		"Prefix-sharing sweep units that ran without a seed snapshot.", "")
	m.sweepSkipped = reg.Counter("raderd_sweep_events_skipped_total",
		"Detector events skipped over shared steal-decision prefixes.", "")
	m.sweepPages = reg.Counter("raderd_sweep_pages_copied_total",
		"Shadow-memory pages copied on write by snapshot-seeded sweep units.", "")
	m.sweepSteals = reg.Counter("raderd_sweep_steals_total",
		"Sweep units taken from another worker's deque by the work-stealing scheduler.", "")
	m.sweepHandoffs = reg.Counter("raderd_sweep_handoffs_total",
		"Stolen sweep units that carried a copy-on-write snapshot across workers.", "")
	m.sweepPooled = reg.Gauge("raderd_sweep_pages_pooled",
		"Shadow-page free-list residency of the most recent sweep's pooled detectors.", "")

	m.depaMerges = reg.Counter("raderd_depa_shard_merges_total",
		"Shard merges performed by completed depa (parallel detector) analyses.", "")
	m.depaFastPath = reg.Gauge("raderd_depa_fast_path_rate",
		"Strand-local fast-path hit rate of the most recent depa analysis.", "")

	m.elideEvents = reg.Counter("raderd_elide_events_elided_total",
		"Access events the static elision pre-pass proved race-free and skipped.", "")
	m.elideBytes = reg.Counter("raderd_elide_bytes_saved_total",
		"Encoded trace bytes the elision pre-pass removed from detector replay.", "")

	m.tracesPropagated = reg.Counter("raderd_trace_propagated_total",
		"Requests that arrived with a valid traceparent header.", "")
	m.spanTrees = reg.Counter("raderd_span_trees_persisted_total",
		"Server-side span trees recorded for later retrieval.", "")
	m.eventStreams = reg.Counter("raderd_job_event_streams_total",
		"GET /jobs/{id}/events requests (streams and long-polls).", "")
	reg.GaugeFunc("raderd_request_ring_depth",
		"Requests currently retained in the /debug/requests ring.", "",
		func() float64 { return float64(ring.Len()) })

	m.phase = make(map[string]*obs.Histogram, 3)
	for _, ph := range []string{phaseQueue, phaseRun, phaseEncode} {
		m.phase[ph] = reg.Histogram("raderd_phase_latency_seconds",
			"Wall time of analyze-request phases.",
			obs.Label("phase", ph), nil)
	}

	if st != nil {
		type statFn func(store.Stats) uint64
		for _, sg := range []struct {
			name, help string
			get        statFn
		}{
			{"raderd_store_verdict_writes_total", "Verdict records durably written.",
				func(s store.Stats) uint64 { return s.VerdictWrites }},
			{"raderd_store_verdict_hits_total", "Checksum-verified verdict reads from disk.",
				func(s store.Stats) uint64 { return s.VerdictHits }},
			{"raderd_store_verdict_misses_total", "Verdict reads that missed (absent or quarantined).",
				func(s store.Stats) uint64 { return s.VerdictMisses }},
			{"raderd_store_trace_writes_total", "Traces committed to the content-addressed store.",
				func(s store.Stats) uint64 { return s.TraceWrites }},
			{"raderd_store_quarantined_total", "Corrupt or torn store files moved to quarantine.",
				func(s store.Stats) uint64 { return s.Quarantined }},
			{"raderd_store_ingest_bytes_total", "Bytes durably appended to resumable uploads.",
				func(s store.Stats) uint64 { return s.IngestBytes }},
			{"raderd_store_spans_writes_total", "Span-tree records durably written.",
				func(s store.Stats) uint64 { return s.SpansWrites }},
		} {
			get := sg.get
			reg.GaugeFunc(sg.name, sg.help, "",
				func() float64 { return float64(get(st.Stats())) })
		}
		reg.GaugeFunc("raderd_recovered_jobs", "Journaled sweep jobs re-enqueued at startup.", "",
			func() float64 { return float64(recovered.Load()) })
	}
	return m
}

// ingested accumulates resumable-upload bytes accepted by the ingest
// handler (the store counts its own durable bytes; this counter exists
// even without a store so the family is stable for the /analyze path).
func (m *metrics) ingested(n int64) {
	if n > 0 {
		m.ingestBytes.Add(uint64(n))
	}
}

func (m *metrics) hit()  { m.cacheHits.Inc() }
func (m *metrics) miss() { m.cacheMisses.Inc() }
func (m *metrics) shed() { m.jobsShed.Inc() }
func (m *metrics) fail() { m.jobsFailed.Inc() }

func (m *metrics) tracePropagated()   { m.tracesPropagated.Inc() }
func (m *metrics) spanTreePersisted() { m.spanTrees.Inc() }
func (m *metrics) eventStream()       { m.eventStreams.Inc() }

// observePhase records one request phase's wall time.
func (m *metrics) observePhase(phase string, d time.Duration) {
	m.phase[phase].Observe(d.Seconds())
}

// done records one completed analysis: its detector, wall time and event
// count (0 when the run was live and uncounted).
func (m *metrics) done(detector string, d time.Duration, events int64) {
	m.jobsDone.Inc()
	m.events.Add(uint64(events))
	if s := d.Seconds(); s > 0 && events > 0 {
		m.lastEPS.Set(float64(events) / s)
	}
	h := m.reg.Histogram("raderd_analyze_latency_seconds",
		"Wall time of completed analyses by detector.",
		obs.Label("detector", sanitizeDetector(detector)), nil)
	h.Observe(d.Seconds())
}

// depa accumulates the parallel detector's machinery stats from one
// completed analysis: shard merges add up across requests, the fast-path
// rate tracks the most recent run (matching lastEPS's convention). Serial
// detectors pass nil and the series stay flat.
func (m *metrics) depa(p *report.Parallel) {
	if p == nil {
		return
	}
	m.depaMerges.Add(uint64(p.ShardMerges))
	m.depaFastPath.Set(p.FastPathRate)
}

// elide accumulates the static elision pre-pass's savings from one
// completed analysis. Non-elided analyses pass zeros and the series stay
// flat — the families exist from boot so dashboards never see them
// appear mid-flight.
func (m *metrics) elide(events, bytes int64) {
	if events > 0 {
		m.elideEvents.Add(uint64(events))
	}
	if bytes > 0 {
		m.elideBytes.Add(uint64(bytes))
	}
}

// sweep accumulates the sharing and scheduling counters of one completed
// coverage sweep. Pages pooled tracks the most recent sweep (matching
// lastEPS's convention) since free-list residency is a level, not a flow.
func (m *metrics) sweep(st rader.SweepStats) {
	m.sweepSnapHits.Add(uint64(st.SnapshotHits))
	m.sweepSnapMisses.Add(uint64(st.SnapshotMisses))
	m.sweepSkipped.Add(uint64(st.EventsSkipped))
	m.sweepPages.Add(uint64(st.PagesCopied))
	m.sweepSteals.Add(uint64(st.Steals))
	m.sweepHandoffs.Add(uint64(st.Handoffs))
	m.sweepPooled.Set(float64(st.PagesPooled))
}

// snapshotHits returns the current cache-hit count (tests poll it).
func (m *metrics) snapshotHits() uint64 { return m.cacheHits.Load() }

// write renders the exposition document.
func (m *metrics) write(w io.Writer) { m.reg.WritePrometheus(w) }

// snapshot returns the flat series map for /debug/vars export.
func (m *metrics) snapshot() map[string]any { return m.reg.Snapshot() }
