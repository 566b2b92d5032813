package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// scaleTest shrinks every input for the smoke test; the default scale
// ("") is the benchmark's own mix.
const scaleTest = "test"

// Load-loop limits. A run measures whole rounds, at least minRounds of
// them so every input has at least ten operations for its median.
// Set-up runs in two batches, one before the load phase and one after it,
// so its median samples the host at two moments; each batch repeats at
// least minSetupReps times and until setupBudget is spent (at most
// maxSetupReps), so that even a cheap set-up reports a median of many.
const (
	minRounds    = 10
	minSetupReps = 2
	maxSetupReps = 25
	setupBudget  = 300 * time.Millisecond
	// untracedShare is the part of -seconds a traced run spends on its
	// untraced reference phase; the traced phase repeats the same rounds.
	untracedShare = 0.35
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    string
	raderd   string
	traceOut string
	answers  answers
	log      io.Writer
}

// workload is one traffic mix: a set-up that builds its inputs and an
// instance that yields seeded rounds of operations.
type workload struct {
	name  string
	setup func(cfg *config) (instance, error)
}

var workloads = []workload{
	{name: "live", setup: setupLive},
	{name: "replay", setup: setupReplay},
	{name: "elide", setup: setupElide},
	{name: "sweep", setup: setupSweep},
	{name: "serve", setup: setupServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// instance is a set-up workload.
type instance interface {
	// prepare does the benchmark's own bookkeeping after set-up: event
	// counts and known answers for seeded inputs. It is not set-up time.
	prepare() error
	// round returns the operations of round r in their seeded order.
	// Round 0 warms caches and pools and is never measured.
	round(r int) []op
	// clients is how many closed-loop callers share a round's operations.
	clients() int
	// proc measures the process doing the work: this one, or raderd.
	proc() procStats
	// restart returns the system under test to its post-set-up state
	// (serve starts a fresh raderd) before a traced run's traced phase.
	restart() error
	// layers computes the per-layer metrics of a traced run.
	layers(t *tracedRun) (map[string]float64, error)
	close() error
}

// op is one closed-loop operation: a caller asks for a verdict and waits
// for it.
type op struct {
	// cell is the input the operation's latency is grouped under for the
	// geomean.
	cell string
	// key names the known answer the verdict must match.
	key string
	// events is the count of instrumentation events the verdict covers.
	events int64
	// prep, when set, readies the operation's input untimed (live: a
	// fresh app instance).
	prep func()
	// run produces the verdict document. A non-empty class refines the
	// cell for this operation (serve: cache hit or miss).
	run func(s *opSpans, client int) (doc []byte, class string, err error)
	// verify, when set, checks the program's own output after the timed
	// call (the app's serial recomputation).
	verify func() error
}

// opRecord is one finished operation.
type opRecord struct {
	id      int64
	cell    string
	latency time.Duration
	events  int64
	bytes   int // verdict document size
	err     error
}

// phase is one measured stretch of rounds.
type phase struct {
	rounds int
	wall   time.Duration
	cpu    float64 // seconds of the measured process
	// peakRSS is each round's peak resident set size in MiB.
	peakRSS []float64
	records []opRecord
	delta   snapshot // process accounting over the phase
	failure string   // first failure, for the report
}

// meanDocBytes is the mean verdict document size over the phase.
func (ph phase) meanDocBytes() float64 {
	var sum float64
	for _, o := range ph.records {
		sum += float64(o.bytes)
	}
	return sum / math.Max(float64(len(ph.records)), 1)
}

type runner struct {
	cfg    *config
	inst   instance
	nextID atomic.Int64
	// unmeasured holds the operations outside the reported phase (warm-up
	// rounds and a traced run's reference phase). They are checked like
	// any other: a wrong verdict anywhere in the run fails it.
	unmeasured recorder
	// forced adds up the collections runOp makes before in-process
	// operations; a phase leaves them out of its time and accounting.
	forcedMu sync.Mutex
	forced   forcedGC
}

// forcedGC is the cost of the benchmark's own collections.
type forcedGC struct {
	wall  time.Duration
	cpu   float64 // process CPU seconds
	gcCPU float64 // the Go runtime's GC CPU class, seconds
}

func (f forcedGC) sub(o forcedGC) forcedGC {
	return forcedGC{wall: f.wall - o.wall, cpu: f.cpu - o.cpu, gcCPU: f.gcCPU - o.gcCPU}
}

func (r *runner) forcedSoFar() forcedGC {
	r.forcedMu.Lock()
	defer r.forcedMu.Unlock()
	return r.forced
}

// collect starts an in-process operation from a collected heap, as a new
// rader process starts: the operation pays for the collections its own
// allocations cause, but not for its predecessor's garbage, so the
// shuffled order does not decide which input pays for whose, and an
// input's latencies do not split into runs that overlapped a collection
// and runs that did not.
func (r *runner) collect() {
	p := self{}
	cpu, snap, start := p.cpu(), p.snapshot(), time.Now()
	runtime.GC()
	wall := time.Since(start)
	d := p.snapshot().sub(snap)
	cpu = p.cpu() - cpu
	r.forcedMu.Lock()
	defer r.forcedMu.Unlock()
	r.forced.wall += wall
	r.forced.cpu += cpu
	r.forced.gcCPU += d.gcCPU
}

// runWorkload sets the workload up (several times, for the set-up
// median), warms it, and measures it: end-to-end metrics from an untraced
// load phase, or per-layer metrics from a traced run.
func runWorkload(w workload, cfg *config) (*result, error) {
	h := thisHost()
	fmt.Fprintf(cfg.log, "bench: workload %s, seed %d, scale %q, %gs, traced %v\nhost: %s\n",
		w.name, cfg.seed, cfg.scale, cfg.seconds, cfg.traced, h)
	inst, setups, err := setupBatch(w, cfg, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	if err := inst.prepare(); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, inst: inst}
	var res *result
	var ph phase
	if cfg.traced {
		res, ph, err = r.tracedRun()
	} else {
		r.warm()
		if ph, err = r.load(0, nil); err == nil {
			res = r.endToEnd(ph)
		}
	}
	if err != nil {
		return nil, err
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		_, more, err := setupBatch(w, cfg, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		res.set(endToEndDefs, "setup_s", median(setups))
	}
	fmt.Fprintf(cfg.log, "set-up: %d reps, median %.4f s\n", len(setups), median(setups))
	r.report(ph, res)
	return res, nil
}

// setupBatch times repeated set-ups of w. With keep, the last instance
// is returned for the load phase; every other one is closed.
func setupBatch(w workload, cfg *config, keep bool) (instance, []float64, error) {
	var inst instance
	var times []float64
	var spent time.Duration
	for len(times) < minSetupReps || (spent < setupBudget && len(times) < maxSetupReps) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(cfg)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		times = append(times, d.Seconds())
	}
	if !keep {
		return nil, times, inst.close()
	}
	return inst, times, nil
}

// warm runs round 0 unmeasured: pools, arenas, intern tables and the
// result cache reach their steady state before timing starts.
func (r *runner) warm() {
	r.runRound(0, &r.unmeasured, nil)
}

// load measures whole rounds starting at round 1: exactly rounds of them
// when rounds > 0 (a traced phase repeating its reference phase), else as
// many as fit in -seconds (at least minRounds).
func (r *runner) load(rounds int, tr *obs.Trace) (phase, error) {
	var rec recorder
	var peaks []float64
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	if tr == nil && r.cfg.traced {
		budget = time.Duration(float64(budget) * untracedShare)
	}
	runtime.GC()
	p := r.inst.proc()
	cpu0, snap0, forced0 := p.cpu(), p.snapshot(), r.forcedSoFar()
	start := time.Now()
	n := 0
	for {
		if rounds > 0 {
			if n >= rounds {
				break
			}
		} else if n >= minRounds {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(n) > budget {
				break
			}
		}
		if err := p.resetPeak(); err != nil {
			return phase{}, err
		}
		r.runRound(n+1, &rec, tr)
		peaks = append(peaks, p.peakRSSMiB())
		n++
	}
	wall := time.Since(start)
	f := r.forcedSoFar().sub(forced0)
	ph := phase{rounds: n, wall: wall - f.wall, cpu: p.cpu() - cpu0 - f.cpu, peakRSS: peaks,
		records: rec.ops, failure: rec.first}
	ph.delta = p.snapshot().sub(snap0)
	// The runtime's total CPU class is GOMAXPROCS × elapsed time, and it
	// is only brought up to date at a collection, so the forced
	// collections' share of it is computed, not read.
	ph.delta.gcCPU -= f.gcCPU
	ph.delta.totalCPU -= float64(runtime.GOMAXPROCS(0)) * f.wall.Seconds()
	return ph, nil
}

func (r *runner) runRound(round int, rec *recorder, tr *obs.Trace) {
	ops := r.inst.round(round)
	clients := r.inst.clients()
	if clients <= 1 {
		for _, o := range ops {
			r.runOp(0, o, rec, tr)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ops)); i = next.Add(1) - 1 {
				r.runOp(client, ops[i], rec, tr)
			}
		}(c)
	}
	wg.Wait()
}

func (r *runner) runOp(client int, o op, rec *recorder, tr *obs.Trace) {
	id := r.nextID.Add(1)
	var s *opSpans
	if tr != nil {
		s = &opSpans{tr: tr, tid: client + 1, id: id}
	}
	if o.prep != nil {
		o.prep()
	}
	if _, inProcess := r.inst.proc().(self); inProcess {
		r.collect()
	}
	end := s.beginOp(o.cell)
	start := time.Now()
	doc, class, err := o.run(s, client)
	lat := time.Since(start)
	end()
	if err == nil && o.verify != nil {
		err = o.verify()
	}
	if err == nil {
		err = r.cfg.answers.check(o.key, doc)
	}
	cell := o.cell
	if class != "" {
		cell += "/" + class
	}
	rec.add(opRecord{id: id, cell: cell, latency: lat, events: o.events, bytes: len(doc), err: err})
}

// recorder collects finished operations from every client.
type recorder struct {
	mu    sync.Mutex
	ops   []opRecord
	first string
}

func (rec *recorder) add(o opRecord) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.ops = append(rec.ops, o)
	if o.err != nil && rec.first == "" {
		rec.first = fmt.Sprintf("%s (op %d): %v", o.cell, o.id, o.err)
	}
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult counts the reported phase's operations and the unmeasured
// ones.
func (r *runner) newResult(ph phase) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, recs := range [][]opRecord{ph.records, r.unmeasured.ops} {
		for _, o := range recs {
			res.Attempted++
			if o.err != nil {
				res.Failed++
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	return res
}

// set records a metric with the unit its definition gives it. Values
// that are not finite (a degenerate measurement) are reported as 0.
func (res *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undefined metric " + name)
}

// endToEnd computes the user-visible metrics of an untraced load phase.
func (r *runner) endToEnd(ph phase) *result {
	res := r.newResult(ph)
	var lat []float64
	var events int64
	for _, o := range ph.records {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
			events += o.events
		}
	}
	ok := float64(len(lat))
	secs := ph.wall.Seconds()
	res.set(endToEndDefs, "events_per_s", float64(events)/secs)
	res.set(endToEndDefs, "verdicts_per_s", ok/secs)
	res.set(endToEndDefs, "verdict_ms_p50", median(lat))
	res.set(endToEndDefs, "verdict_ms_geomean", cellGeomean(ph.records))
	res.set(endToEndDefs, "peak_rss_mib", median(ph.peakRSS))
	res.set(endToEndDefs, "cpu_s_per_verdict", ph.cpu/math.Max(ok, 1))
	return res
}

// cellGeomean is the geometric mean over inputs of each input's median
// successful operation in ms, over inputs with at least minRounds of
// them.
func cellGeomean(recs []opRecord) float64 {
	byCell := map[string][]float64{}
	for _, o := range recs {
		if o.err == nil {
			byCell[o.cell] = append(byCell[o.cell], ms(o.latency))
		}
	}
	var meds []float64
	for _, xs := range byCell {
		if len(xs) >= minRounds {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// report prints the human-readable summary of a run.
func (r *runner) report(ph phase, res *result) {
	w := r.cfg.log
	fmt.Fprintf(w, "load: %d rounds, %d ops in %.3f s; %d of %d checked ops failed\n",
		ph.rounds, len(ph.records), ph.wall.Seconds(), res.Failed, res.Attempted)
	for _, f := range []string{ph.failure, r.unmeasured.first} {
		if f != "" {
			fmt.Fprintf(w, "first failure: %s\n", f)
		}
	}
	fmt.Fprintf(w, "fail_frac: %g\n", float64(res.Failed)/math.Max(float64(res.Attempted), 1))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// tracedRun is the material a workload's per-layer metrics come from:
// the traced phase's spans and operations, and the untraced reference
// phase over the same rounds.
type tracedRun struct {
	untraced, traced phase
	spans            *spanStats
}

func (r *runner) tracedRun() (*result, phase, error) {
	r.warm()
	ref, err := r.load(0, nil)
	if err != nil {
		return nil, phase{}, err
	}
	if err := r.inst.restart(); err != nil {
		return nil, phase{}, err
	}
	r.warm()
	tr := obs.NewTrace()
	for _, o := range ref.records {
		r.unmeasured.add(o)
	}
	traced, err := r.load(ref.rounds, tr)
	if err != nil {
		return nil, phase{}, err
	}
	spans := analyzeSpans(tr.Spans())
	t := &tracedRun{untraced: ref, traced: traced, spans: spans}
	layer, err := r.inst.layers(t)
	if err != nil {
		return nil, phase{}, err
	}
	res := r.newResult(traced)
	for _, d := range layerDefs {
		res.set(layerDefs, d.name, layer[d.name])
	}
	for name := range layer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, phase{}, fmt.Errorf("workload reported undefined layer metric %q", name)
		}
	}
	res.set(layerDefs, "trace_overhead_frac", traced.wall.Seconds()/ref.wall.Seconds()-1)
	res.set(layerDefs, "spans.covered_frac", spans.coveredFrac())
	for _, name := range spanNames {
		res.set(layerDefs, "self_ms."+name, ms(spans.self[name])/math.Max(float64(len(traced.records)), 1))
	}
	var events int64
	for _, o := range ref.records {
		events += o.events
	}
	res.set(layerDefs, "go.gc_cpu_frac", ref.delta.gcFrac())
	res.set(layerDefs, "go.alloc_bytes_per_event", ref.delta.allocBytes/math.Max(float64(events), 1))

	path := r.cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", r.cfg.workload+".trace.json")
	}
	if err := writeChrome(tr, path); err != nil {
		return nil, phase{}, err
	}
	fmt.Fprintf(r.cfg.log, "untraced reference: %d rounds in %.3f s; traced: %.3f s; Chrome trace: %s\n",
		ref.rounds, ref.wall.Seconds(), traced.wall.Seconds(), path)
	spans.print(r.cfg.log, len(traced.records))
	return res, traced, nil
}

func writeChrome(tr *obs.Trace, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
