package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/corpus"
)

// progOf wraps a plain func as a named program.
func progOf(desc string, body func()) corpus.Program {
	return corpus.Program{
		Desc:  desc,
		Build: func() *apps.Instance { return &apps.Instance{Prog: func(*cilk.Ctx) { body() }} },
	}
}

func TestSanitizeDetector(t *testing.T) {
	for _, d := range []string{"none", "empty", "peer-set", "sp-bags", "sp+",
		"offset-span", "english-hebrew", "depa", "all", "sweep"} {
		if got := sanitizeDetector(d); got != d {
			t.Errorf("sanitizeDetector(%q) = %q, want identity", d, got)
		}
	}
	for _, d := range []string{"", "bogus", "sp+\nINJECTED 1", `x"y`, "SP+"} {
		if got := sanitizeDetector(d); got != "other" {
			t.Errorf("sanitizeDetector(%q) = %q, want \"other\"", d, got)
		}
	}
}

// A hostile detector label must not mint a new series: it lands in the
// bounded "other" bucket.
func TestMetricsLabelCardinality(t *testing.T) {
	s := New(Config{Workers: 1})
	for i := 0; i < 50; i++ {
		s.metrics.done(fmt.Sprintf("evil-%d", i), time.Millisecond, 0)
	}
	s.metrics.done("sp+", time.Millisecond, 0)
	var buf bytes.Buffer
	s.metrics.write(&buf)
	out := buf.String()
	if strings.Contains(out, "evil-") {
		t.Fatal("unsanitized detector label leaked into exposition")
	}
	if !strings.Contains(out, `raderd_analyze_latency_seconds_count{detector="other"} 50`) {
		t.Errorf("unknown detectors not folded into other:\n%s", out)
	}
	if !strings.Contains(out, `raderd_analyze_latency_seconds_count{detector="sp+"} 1`) {
		t.Errorf("known detector series missing:\n%s", out)
	}
}

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		queued, workers, want int
	}{
		{0, 4, 1},     // empty queue: minimum hint
		{1, 4, 1},     // shallow queue still drains within a second
		{4, 4, 2},     // one full drain interval queued
		{16, 4, 5},    // grows with depth
		{1000, 4, 30}, // capped
		{5, 0, 6},     // degenerate worker count clamps to 1
		{-3, 4, 1},    // transient negative depth clamps to minimum
	}
	for _, c := range cases {
		if got := retryAfterHint(c.queued, c.workers); got != c.want {
			t.Errorf("retryAfterHint(%d, %d) = %d, want %d", c.queued, c.workers, got, c.want)
		}
	}
	// Monotone in queue depth for a fixed pool.
	prev := 0
	for q := 0; q < 200; q += 7 {
		h := retryAfterHint(q, 4)
		if h < prev {
			t.Fatalf("hint not monotone: queued=%d gave %d after %d", q, h, prev)
		}
		prev = h
	}
}

// The shed path must carry a parseable, positive Retry-After computed from
// pool state rather than a constant.
func TestShedRetryAfterComputed(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		Programs: map[string]corpus.Program{
			"stall": progOf("blocks until the test ends", func() { <-block }),
		},
	})
	defer close(block)

	// Fill the worker and the queue, then overflow.
	for i := 0; i < 1+8; i++ {
		go http.Post(ts.URL+"/analyze?prog=stall&detector=none", "", nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Admitted() < 9 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never filled: admitted=%d", s.Admitted())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/analyze?prog=stall&detector=none", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	// 8 queued on 1 worker: the hint must reflect the backlog, not be the
	// old hardcoded 1.
	if want := retryAfterHint(8, 1); secs != want {
		t.Errorf("Retry-After = %d, want %d (8 queued / 1 worker)", secs, want)
	}
}

// expoSeries is one parsed sample line of a Prometheus text exposition.
type expoSeries struct {
	name   string // metric name including _bucket/_sum/_count suffix
	labels string // raw {...} contents, "" when unlabelled
	value  float64
}

// parseExposition validates the overall document shape — every sample
// preceded by # HELP and # TYPE for its family, no interleaved families —
// and returns the samples in order.
func parseExposition(t *testing.T, r io.Reader) ([]expoSeries, map[string]string) {
	t.Helper()
	var series []expoSeries
	types := map[string]string{}
	helps := map[string]string{}
	seenOrder := []string{}
	cur := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("malformed HELP line %q", line)
			}
			if prev, dup := helps[name]; dup && prev != help {
				t.Fatalf("family %s re-announced with different help", name)
			}
			if _, dup := helps[name]; dup {
				t.Fatalf("duplicate family announcement for %s", name)
			}
			helps[name] = help
			seenOrder = append(seenOrder, name)
			cur = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if name != cur {
				t.Fatalf("TYPE for %s does not follow its HELP (current family %s)", name, cur)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown type %q for %s", typ, name)
			}
			types[name] = typ
			continue
		}
		// Sample line: name{labels} value or name value.
		nameAndLabels, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q has unparseable value: %v", line, err)
		}
		name, labels := nameAndLabels, ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name, labels = nameAndLabels[:i], nameAndLabels[i+1:len(nameAndLabels)-1]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if types[base] == "" && types[name] == "" {
			t.Fatalf("sample %s appears before its family metadata", name)
		}
		fam := base
		if types[name] != "" {
			fam = name
		}
		if fam != cur {
			t.Fatalf("sample for family %s interleaved into family %s", fam, cur)
		}
		series = append(series, expoSeries{name: name, labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// No family announced twice (checked above) and none announced empty.
	if len(seenOrder) == 0 {
		t.Fatal("exposition contained no families")
	}
	return series, types
}

// TestMetricsExpositionFormat scrapes a live server and validates the
// Prometheus text-format contract: HELP/TYPE metadata, no duplicate or
// interleaved families, monotone cumulative histogram buckets ending in
// +Inf, and count/sum coherence.
func TestMetricsExpositionFormat(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Programs: map[string]corpus.Program{
		"quick": progOf("returns immediately", func() {}),
	}})
	s.metrics.done("sp+", 3*time.Millisecond, 1000)
	s.metrics.done("weird", 40*time.Millisecond, 0)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	series, types := parseExposition(t, resp.Body)

	for _, fam := range []string{
		"raderd_jobs_total", "raderd_queue_depth", "raderd_workers_busy",
		"raderd_workers", "raderd_cache_hits_total", "raderd_cache_misses_total",
		"raderd_cache_hit_ratio", "raderd_cache_entries", "raderd_events_total",
		"raderd_events_per_second", "raderd_sweep_jobs",
		"raderd_sweep_snapshot_hits_total", "raderd_sweep_snapshot_misses_total",
		"raderd_sweep_events_skipped_total", "raderd_sweep_pages_copied_total",
		"raderd_sweep_steals_total", "raderd_sweep_handoffs_total",
		"raderd_sweep_pages_pooled",
		"raderd_depa_shard_merges_total", "raderd_depa_fast_path_rate",
		"raderd_elide_events_elided_total", "raderd_elide_bytes_saved_total",
		"raderd_trace_propagated_total", "raderd_span_trees_persisted_total",
		"raderd_job_event_streams_total", "raderd_request_ring_depth",
		"raderd_phase_latency_seconds", "raderd_analyze_latency_seconds",
	} {
		if types[fam] == "" {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if types["raderd_jobs_total"] != "counter" ||
		types["raderd_queue_depth"] != "gauge" ||
		types["raderd_analyze_latency_seconds"] != "histogram" {
		t.Errorf("unexpected family types: %v", types)
	}

	// Within each family, no duplicate child label sets.
	seen := map[string]bool{}
	for _, sr := range series {
		key := sr.name + "{" + sr.labels + "}"
		if seen[key] {
			t.Errorf("duplicate series %s", key)
		}
		seen[key] = true
	}

	// Histogram coherence per labelled child: buckets are cumulative and
	// monotone, last bucket is +Inf and equals _count.
	type histState struct {
		prev    float64
		prevLE  float64
		last    float64
		infSeen bool
		count   float64
	}
	hists := map[string]*histState{}
	for _, sr := range series {
		if strings.HasSuffix(sr.name, "_bucket") {
			base := strings.TrimSuffix(sr.name, "_bucket")
			le := ""
			for _, part := range strings.Split(sr.labels, ",") {
				if v, ok := strings.CutPrefix(part, "le="); ok {
					le = strings.Trim(v, `"`)
				}
			}
			child := base + "|" + sr.labels[:strings.LastIndex(sr.labels, "le=")]
			h := hists[child]
			if h == nil {
				h = &histState{prevLE: -1}
				hists[child] = h
			}
			if sr.value < h.prev {
				t.Errorf("%s: bucket counts not cumulative (%g after %g)", child, sr.value, h.prev)
			}
			if le == "+Inf" {
				h.infSeen = true
			} else {
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("%s: bad le %q", child, le)
				} else if bound <= h.prevLE {
					t.Errorf("%s: le bounds not increasing (%g after %g)", child, bound, h.prevLE)
				} else {
					h.prevLE = bound
				}
				if h.infSeen {
					t.Errorf("%s: bucket after +Inf", child)
				}
			}
			h.prev, h.last = sr.value, sr.value
		}
		if strings.HasSuffix(sr.name, "_count") {
			base := strings.TrimSuffix(sr.name, "_count")
			prefix := base + "_bucket|" + sr.labels
			if sr.labels != "" {
				prefix += ","
			}
			for child, h := range hists {
				if strings.HasPrefix(child, prefix) {
					h.count = sr.value
					if !h.infSeen {
						t.Errorf("%s: histogram missing +Inf bucket", child)
					}
					if h.last != sr.value {
						t.Errorf("%s: +Inf bucket %g != count %g", child, h.last, sr.value)
					}
				}
			}
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram children parsed")
	}

	// The sanitized label and the phase family carry real observations.
	var otherCount, phaseCount float64
	for _, sr := range series {
		if sr.name == "raderd_analyze_latency_seconds_count" && sr.labels == `detector="other"` {
			otherCount = sr.value
		}
		if sr.name == "raderd_phase_latency_seconds_count" {
			phaseCount += sr.value
		}
	}
	if otherCount != 1 {
		t.Errorf(`detector="other" count = %g, want 1`, otherCount)
	}
	_ = phaseCount // present but zero until a request runs; family checked above

	// Driving one real request populates the phase histograms.
	if _, err := http.Post(ts.URL+"/analyze?prog=quick&detector=none", "", nil); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	series2, _ := parseExposition(t, resp2.Body)
	phases := map[string]float64{}
	for _, sr := range series2 {
		if sr.name == "raderd_phase_latency_seconds_count" {
			phases[sr.labels] = sr.value
		}
	}
	for _, ph := range []string{phaseQueue, phaseRun, phaseEncode} {
		if phases[fmt.Sprintf("phase=%q", ph)] < 1 {
			t.Errorf("phase %q histogram has no observations: %v", ph, phases)
		}
	}
}

// TestDepaMetricsSeries pins the parallel detector's series names: one
// completed detector=depa analysis must populate
// raderd_depa_shard_merges_total and raderd_depa_fast_path_rate on both
// /metrics and the /debug/vars snapshot, and its verdict document must
// carry the parallel stats section.
func TestDepaMetricsSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/analyze?prog=fig1&detector=depa", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze?detector=depa = %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ar.Report), `"parallel":{`) {
		t.Errorf("depa verdict document missing the parallel section: %s", ar.Report)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	value := func(series string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("series %s has unparsable value %q", series, rest)
				}
				return v
			}
		}
		t.Fatalf("series %s missing from exposition:\n%s", series, text)
		return 0
	}
	if merges := value("raderd_depa_shard_merges_total"); merges < 1 {
		t.Errorf("raderd_depa_shard_merges_total = %g, want >= 1 after a depa analysis", merges)
	}
	value("raderd_depa_fast_path_rate") // presence is the contract

	vars := s.MetricsSnapshot()
	for _, name := range []string{
		"raderd_depa_shard_merges_total",
		"raderd_depa_fast_path_rate",
	} {
		if _, ok := vars[name]; !ok {
			t.Errorf("/debug/vars snapshot missing %s", name)
		}
	}
}

// TestElideMetricsSeries pins the elision series names: one elide=1
// trace analysis must move raderd_elide_events_elided_total and
// raderd_elide_bytes_saved_total on both /metrics and the /debug/vars
// snapshot, while the verdict document stays byte-identical to the
// plain analysis of the same trace (same cache key, same races).
func TestElideMetricsSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	raw := fixture(t, "fig1_v2.trace")

	plain, plainBody := postAnalyze(t, ts.URL+"/analyze?detector=sp-bags", raw)
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("plain analyze: %d %s", plain.StatusCode, plainBody)
	}
	full := decodeAnalyze(t, plainBody)

	// Same digest+detector: the elided request is answered from the cache
	// the plain one seeded — the elision counters must not move.
	resp, body := postAnalyze(t, ts.URL+"/analyze?detector=sp-bags&elide=1", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached elide analyze: %d %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); !ar.Cached {
		t.Fatal("elide=1 for an already-analyzed digest must hit the cache (verdicts are byte-identical)")
	}

	// A fresh detector key actually runs the elision pre-pass.
	resp2, body2 := postAnalyze(t, ts.URL+"/analyze?detector=depa&elide=1", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("elide analyze: %d %s", resp2.StatusCode, body2)
	}
	elided := decodeAnalyze(t, body2)
	if elided.Cached {
		t.Fatal("fresh detector key cannot be a cache hit")
	}
	resp3, body3 := postAnalyze(t, ts.URL+"/analyze?detector=depa", raw)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("plain depa analyze: %d %s", resp3.StatusCode, body3)
	}
	if ar := decodeAnalyze(t, body3); !ar.Cached {
		t.Fatal("plain analysis after an elided one must be a cache hit: same key, identical verdict")
	}
	if full.Clean || elided.Clean {
		t.Fatal("fig1 trace must race with and without elision")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	value := func(series string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("series %s has unparsable value %q", series, rest)
				}
				return v
			}
		}
		t.Fatalf("series %s missing from exposition:\n%s", series, text)
		return 0
	}
	if ev := value("raderd_elide_events_elided_total"); ev < 1 {
		t.Errorf("raderd_elide_events_elided_total = %g, want >= 1 after an elided analysis", ev)
	}
	if by := value("raderd_elide_bytes_saved_total"); by < 1 {
		t.Errorf("raderd_elide_bytes_saved_total = %g, want >= 1 after an elided analysis", by)
	}

	vars := s.MetricsSnapshot()
	for _, name := range []string{
		"raderd_elide_events_elided_total",
		"raderd_elide_bytes_saved_total",
	} {
		if _, ok := vars[name]; !ok {
			t.Errorf("/debug/vars snapshot missing %s", name)
		}
	}

	// Elision proves facts about a recorded stream; a program run has no
	// stream to elide and must be refused at resolve time.
	resp4, body4 := postAnalyze(t, ts.URL+"/analyze?prog=fig1&elide=1", nil)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("elide=1 with ?prog= = %d, want 400: %s", resp4.StatusCode, body4)
	}
}

// TestSweepSharingMetricsSeries pins the sweep-sharing series names: one
// completed sweep must populate raderd_sweep_snapshot_{hits,misses}_total,
// raderd_sweep_events_skipped_total and raderd_sweep_pages_copied_total on
// both /metrics and the /debug/vars snapshot — the default sweep is the
// prefix-sharing one, so the hit and skip counters move.
func TestSweepSharingMetricsSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	resp, err := http.Post(ts.URL+"/sweep?prog=fig1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr SweepResponse
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("submit: %v in %s", err, body)
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
		if err := json.Unmarshal(pb, &sr); err != nil {
			t.Fatal(err)
		}
	}
	if sr.State != stateDone {
		t.Fatalf("sweep failed: %s", sr.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	value := func(series string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("series %s has unparsable value %q", series, rest)
				}
				return v
			}
		}
		t.Fatalf("series %s missing from exposition:\n%s", series, text)
		return 0
	}
	if hits := value("raderd_sweep_snapshot_hits_total"); hits == 0 {
		t.Error("a prefix-sharing sweep must seed at least one unit from a snapshot")
	}
	if misses := value("raderd_sweep_snapshot_misses_total"); misses == 0 {
		t.Error("the root unit always runs without a seed; misses cannot be zero")
	}
	if skipped := value("raderd_sweep_events_skipped_total"); skipped == 0 {
		t.Error("snapshot-seeded units must skip prefix events")
	}
	value("raderd_sweep_pages_copied_total") // presence is the contract; fig1 may or may not COW
	// Scheduler series exist from boot; their values depend on how the
	// two workers raced, so only presence is pinned.
	value("raderd_sweep_steals_total")
	value("raderd_sweep_handoffs_total")
	value("raderd_sweep_pages_pooled")

	vars := s.MetricsSnapshot()
	for _, name := range []string{
		"raderd_sweep_snapshot_hits_total",
		"raderd_sweep_snapshot_misses_total",
		"raderd_sweep_events_skipped_total",
		"raderd_sweep_pages_copied_total",
		"raderd_sweep_steals_total",
		"raderd_sweep_handoffs_total",
		"raderd_sweep_pages_pooled",
	} {
		if _, ok := vars[name]; !ok {
			t.Errorf("/debug/vars snapshot missing %s", name)
		}
	}
}
