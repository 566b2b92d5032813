package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/trace"
)

// The serve workload drives raderd as a child process with two
// keep-alive clients. Each request uploads one trace to POST /analyze,
// drawn with a seeded Zipf distribution from a fixed corpus of distinct
// traces, under a random detector (all, sp+ or depa) with elision on or
// off. It is the only workload that exercises service admission, the
// result cache, digesting and HTTP: the production analyze path end to
// end. With 64 cache entries both hits and misses persist in steady
// state.
//
// The corpus does not depend on -seed: the seed sets the request
// sequence only, so runs at different seeds measure the same programs
// and their spread is the host's and the sequence's, not the corpus's.

const (
	serveClients = 2
	serveCache   = 64
	// serveRound is the number of requests per round; round 0 warms the
	// cache to its steady state.
	serveRound = 256
	// Zipf parameters: P(rank k) ∝ (zipfV + k)^-zipfS. The offset keeps
	// the head from concentrating on a single trace, so a run averages
	// over many programs and its numbers do not hinge on which program
	// the seed put first.
	zipfS = 1.1
	zipfV = 4
	// Random programs are kept when their steal-all trace has between
	// these many events: big enough that analysis, not HTTP, dominates a
	// miss, small enough for hundreds of them.
	randomMinEvents = 300
	randomMaxEvents = 3000
	// corpusSeed generates the random programs.
	corpusSeed = 1
)

var serveDetectors = []string{"all", string(rader.SPPlus), string(rader.Depa)}

// serveShape returns the corpus size, the app scale and the Zipf ranks
// the six apps hold (the seeded random programs take every other rank).
func serveShape(scale string) (traces int, appScale apps.Scale, appRanks []int) {
	if scale == scaleTest {
		return 32, apps.Test, []int{1, 3, 6, 10, 15, 21}
	}
	return 512, apps.Small, []int{1, 4, 10, 22, 46, 94}
}

type serveInst struct {
	cfg    *config
	traces []*traceInput // by Zipf rank
	keys   []string      // known-answer key prefix, by rank
	d      *daemon
	http   []*http.Client // one keep-alive connection per client
}

// setupServe builds the trace corpus and starts raderd.
func setupServe(cfg *config) (instance, error) {
	n, appScale, appRanks := serveShape(cfg.scale)
	si := &serveInst{cfg: cfg, traces: make([]*traceInput, n), keys: make([]string, n)}
	for i, a := range appsAt(appScale, appNames...) {
		t, err := appTrace(a)
		if err != nil {
			return nil, err
		}
		si.traces[appRanks[i]], si.keys[appRanks[i]] = t, "replay/"+t.name
	}
	g := rng(corpusSeed, 0, "serve-programs")
	seen := map[string]bool{}
	rank := 0
	for rank < n {
		if si.traces[rank] != nil {
			rank++
			continue
		}
		o := progs.RandomOpts{Seed: g.Int63(), MaxDepth: 8, MaxStmts: 8, Addrs: 64, Reducers: 2,
			Reads: true, MonoidStores: true}
		data, events, err := record(progs.Random(mem.NewAllocator(), o))
		if err != nil {
			return nil, err
		}
		digest := digestHex(data)
		if events < randomMinEvents || events > randomMaxEvents || seen[digest] {
			continue
		}
		seen[digest] = true
		name := fmt.Sprintf("random-%d", o.Seed)
		si.traces[rank] = &traceInput{name: name, data: data,
			build: func() func(*cilk.Ctx) { return progs.Random(mem.NewAllocator(), o) }}
		si.keys[rank] = "serve/" + name
		rank++
	}
	return si, si.start()
}

func (si *serveInst) start() error {
	d, err := startDaemon(si.cfg.raderd)
	if err != nil {
		return err
	}
	si.d = d
	si.http = make([]*http.Client, serveClients)
	for i := range si.http {
		si.http[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return nil
}

// prepare derives the known answers of the random programs from
// the library replay path and checks the apps' local verdicts against
// expected.json, so every request has an answer before load starts.
func (si *serveInst) prepare() error {
	rp := trace.NewReplayer()
	if err := countEvents(rp, si.traces); err != nil {
		return err
	}
	for i, t := range si.traces {
		docs, err := localVerdicts(rp, t.data)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		for _, det := range serveDetectors {
			key := si.keys[i] + "/" + det
			if strings.HasPrefix(key, "serve/") {
				si.cfg.answers[key] = answer{SHA256: digestHex(docs[det])}
			} else if err := si.cfg.answers.check(key, docs[det]); err != nil {
				return fmt.Errorf("local replay of %s: %w", t.name, err)
			}
		}
	}
	return nil
}

// localVerdicts computes, in process, the verdict documents raderd must
// return for a trace: the all-detector document, its SP+ sub-report (the
// document a standalone sp+ request produces) and the depa document.
func localVerdicts(rp *trace.Replayer, data []byte) (map[string][]byte, error) {
	docs := map[string][]byte{}
	dets := rader.NewAllDetectors()
	n, err := rp.Replay(data, allHooks(dets)...)
	if err != nil {
		return nil, err
	}
	m := report.FromDetectors("", n, dets)
	if docs["all"], err = m.Marshal(); err != nil {
		return nil, err
	}
	for _, sub := range m.Reports {
		if sub.Detector == string(rader.SPPlus) {
			if docs[string(rader.SPPlus)], err = sub.Marshal(); err != nil {
				return nil, err
			}
		}
	}
	d := depa.New()
	if _, err := rp.Replay(data, d); err != nil {
		return nil, err
	}
	docs[string(rader.Depa)], err = report.FromDetector(string(rader.Depa), "", n, d).Marshal()
	return docs, err
}

func (si *serveInst) clients() int    { return serveClients }
func (si *serveInst) proc() procStats { return child{pid: si.d.cmd.Process.Pid, base: si.d.base} }

func (si *serveInst) restart() error {
	if err := si.close(); err != nil {
		return err
	}
	return si.start()
}

func (si *serveInst) close() error {
	for _, c := range si.http {
		c.CloseIdleConnections()
	}
	if si.d == nil {
		return nil
	}
	err := si.d.stop()
	si.d = nil
	return err
}

// round draws the round's requests: Zipf-ranked traces, a uniform
// detector and elision on or off.
func (si *serveInst) round(r int) []op {
	g := rng(si.cfg.seed, r, "serve")
	z := rand.NewZipf(g, zipfS, zipfV, uint64(len(si.traces)-1))
	ops := make([]op, serveRound)
	for i := range ops {
		rank := int(z.Uint64())
		det := serveDetectors[g.Intn(len(serveDetectors))]
		ops[i] = si.op(rank, det, g.Intn(2))
	}
	return ops
}

func (si *serveInst) op(rank int, det string, elide int) op {
	t := si.traces[rank]
	u := fmt.Sprintf("%s/analyze?detector=%s&elide=%d", si.d.base, url.QueryEscape(det), elide)
	return op{
		cell: fmt.Sprintf("%s/elide%d", det, elide), key: si.keys[rank] + "/" + det, events: t.events,
		run: func(s *opSpans, client int) ([]byte, string, error) {
			end := s.begin("http.analyze")
			body, status, err := post(si.http[client], u, t.data)
			end()
			if err != nil {
				return nil, "", err
			}
			if status != http.StatusOK {
				return nil, "", fmt.Errorf("POST /analyze: HTTP %d: %s", status, bytes.TrimSpace(body))
			}
			var resp struct {
				Cached bool            `json:"cached"`
				Report json.RawMessage `json:"report"`
			}
			end = s.begin("http.decode")
			err = json.Unmarshal(body, &resp)
			end()
			if err != nil {
				return nil, "", fmt.Errorf("POST /analyze: %w", err)
			}
			class := "miss"
			if resp.Cached {
				class = "hit"
			}
			return resp.Report, class, nil
		},
	}
}

func post(c *http.Client, u string, data []byte) ([]byte, int, error) {
	resp, err := c.Post(u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// layers reads the service's phase means, cache and elision counters as
// /metrics deltas over the traced phase, and the encode and decode costs
// from one calibration pass over the corpus.
func (si *serveInst) layers(t *tracedRun) (map[string]float64, error) {
	d := t.traced.delta.series
	mean := func(phase string) (ms, sum float64) {
		sum = d[`raderd_phase_latency_seconds_sum{phase="`+phase+`"}`]
		n := d[`raderd_phase_latency_seconds_count{phase="`+phase+`"}`]
		return 1e3 * sum / math.Max(n, 1), sum
	}
	m := map[string]float64{}
	var server float64
	for _, ph := range []string{"queue", "run", "encode"} {
		avg, sum := mean(ph)
		m["service."+ph+"_ms_mean"] = avg
		server += sum
	}
	var lat []float64
	for _, o := range t.untraced.records {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
		}
	}
	reqs := math.Max(float64(len(t.traced.records)), 1)
	hits, misses := d["raderd_cache_hits_total"], d["raderd_cache_misses_total"]
	m["service.http_ms_mean"] = 1e3 * (t.spans.total("http.analyze").Seconds() - server) / reqs
	m["service.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	m["service.shed"] = d[`raderd_jobs_total{state="rejected"}`]
	m["service.elide_events_elided"] = d["raderd_elide_events_elided_total"]
	m["service.verdict_ms_p90"] = percentile(lat, 90)

	cal, err := calibrateTraces(trace.NewReplayer(), si.traces, 1, false)
	if err != nil {
		return nil, err
	}
	cal.fill(m)
	return m, nil
}

// daemon is a running raderd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// drained is closed once the child's stdout reaches EOF, which
	// happens when it exits; only then may cmd.Wait run.
	drained chan struct{}
}

// startDaemon starts raderd in memory (no store directory) on a free
// loopback port and waits until it is ready.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-quiet",
		"-cache", fmt.Sprint(serveCache))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting raderd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br) // the child's later output is not needed
		close(d.drained)
	}()
	// The banner is "raderd listening on <addr> (...)".
	f := strings.Fields(line)
	if err != nil || len(f) < 4 || f[1] != "listening" {
		d.kill()
		return nil, fmt.Errorf("raderd did not start (banner %q): %v", line, err)
	}
	d.base = "http://" + f[3]
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := httpGet(d.base + "/readyz"); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("raderd not ready: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains raderd with SIGTERM, as an operator would, and waits for
// it to exit; a child that does not exit within the drain bound is
// killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("raderd exited before it was stopped: %w", err)
	}
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("raderd: %w", err)
	}
	return nil
}

// kill stops raderd without a drain and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when it has already exited
	<-d.drained
	_ = d.cmd.Wait() // the kill is the cause of its error
}
