// Replay-throughput measurement: the numbers behind BENCH_PR3.json. The
// paper's Figures 7 and 8 measure live-run overhead; this harness measures
// the other half of the record-once/analyze-many workflow — how fast a
// recorded trace replays into the detectors, and what the single-pass
// fan-out engine (trace.ReplayAll) buys over one streaming replay per
// detector.
package tables

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/trace"
)

// ReplayPath is one measured replay configuration.
type ReplayPath struct {
	NsPerEvent     float64 `json:"nsPerEvent"`
	AllocsPerEvent float64 `json:"allocsPerEvent"`
}

// ReplayDetector is one detector's sequential streaming-replay cost.
type ReplayDetector struct {
	Detector string `json:"detector"`
	ReplayPath
}

// ReplayBench is the replay-throughput section of BENCH_PR3.json.
type ReplayBench struct {
	// Events and TraceBytes describe the measured trace (Figure 1 at a
	// bench-sized N, recorded under steal-all).
	Events     int64 `json:"events"`
	TraceBytes int   `json:"traceBytes"`
	// Detectors holds one streaming replay per detector — the sequential
	// baseline's addends.
	Detectors []ReplayDetector `json:"detectors"`
	// DecodeLoop is the pooled single-pass engine with no consumers,
	// measured on a reducer-free stream: its steady state performs zero
	// allocations per event (the CI allocation-regression gate).
	DecodeLoop ReplayPath `json:"decodeLoop"`
	// Sequential is the all-detectors verdict computed the old way: three
	// streaming replays of the same bytes.
	Sequential ReplayPath `json:"sequential"`
	// AllDetectors is the same verdict from one trace.ReplayAll pass.
	AllDetectors ReplayPath `json:"allDetectors"`
	// Speedup is Sequential.NsPerEvent / AllDetectors.NsPerEvent — the
	// PR's acceptance gate demands >= 2.
	Speedup float64 `json:"speedup"`
}

// measureReplayPath times f (which must replay the whole trace once per
// call) and reports median ns/event over trials plus allocations/event.
func measureReplayPath(trials int, events int64, f func()) ReplayPath {
	f() // warm pools, arenas, and intern tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs - before.Mallocs)

	const reps = 5
	samples := make([]time.Duration, trials)
	for i := range samples {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		samples[i] = time.Since(start) / reps
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[len(samples)/2]
	return ReplayPath{
		NsPerEvent:     float64(med.Nanoseconds()) / float64(events),
		AllocsPerEvent: allocs / float64(events),
	}
}

// MeasureReplay runs the replay-throughput comparison: per-detector
// streaming replays, the three-replay sequential baseline, the
// single-pass all-detectors path, and the bare decode loop.
func MeasureReplay(trials int) (*ReplayBench, error) {
	if trials < 1 {
		trials = 3
	}
	record := func(prog func(*cilk.Ctx)) ([]byte, error) {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
		if err := tw.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	al := mem.NewAllocator()
	data, err := record(progs.Fig1(al, progs.Fig1Options{N: 256}))
	if err != nil {
		return nil, err
	}
	events, err := trace.ReplayAll(data, nil, nil, cilk.Empty{})
	if err != nil {
		return nil, err
	}
	out := &ReplayBench{Events: events, TraceBytes: len(data)}

	mustReplay := func(hooks cilk.Hooks) {
		if _, err := trace.Replay(bytes.NewReader(data), hooks); err != nil {
			panic(err)
		}
	}
	for _, name := range rader.AllDetectors {
		name := name
		p := measureReplayPath(trials, events, func() {
			_, hooks, err := rader.NewDetector(name)
			if err != nil {
				panic(err)
			}
			mustReplay(hooks)
		})
		out.Detectors = append(out.Detectors, ReplayDetector{Detector: string(name), ReplayPath: p})
	}
	out.Sequential = measureReplayPath(trials, events, func() {
		for _, name := range rader.AllDetectors {
			_, hooks, err := rader.NewDetector(name)
			if err != nil {
				panic(err)
			}
			mustReplay(hooks)
		}
	})
	out.AllDetectors = measureReplayPath(trials, events, func() {
		dets := rader.NewAllDetectors()
		hooks := make([]cilk.Hooks, len(dets))
		for i, d := range dets {
			hooks[i] = d.(cilk.Hooks)
		}
		if _, err := trace.ReplayAll(data, nil, nil, hooks...); err != nil {
			panic(err)
		}
	})

	// The decode loop is measured on a reducer-free stream with a
	// dedicated engine: reducer objects are the one legitimate per-replay
	// allocation, and the steady-state claim is about the loop itself.
	alNR := mem.NewAllocator()
	x := alNR.Alloc("x", 8)
	plain, err := record(func(c *cilk.Ctx) {
		for i := 0; i < 64; i++ {
			c.Spawn("worker", func(cc *cilk.Ctx) {
				cc.Store(x.At(0))
				cc.Load(x.At(1))
				cc.Call("leaf", func(ccc *cilk.Ctx) { ccc.Store(x.At(2)) })
			})
		}
		c.Sync()
	})
	if err != nil {
		return nil, err
	}
	plainEvents, err := trace.ReplayAll(plain, nil, nil, cilk.Empty{})
	if err != nil {
		return nil, err
	}
	rp := trace.NewReplayer()
	out.DecodeLoop = measureReplayPath(trials, plainEvents, func() {
		if _, err := rp.Replay(plain, cilk.Empty{}); err != nil {
			panic(err)
		}
	})

	if out.AllDetectors.NsPerEvent <= 0 {
		return nil, fmt.Errorf("tables: degenerate all-detectors measurement")
	}
	out.Speedup = out.Sequential.NsPerEvent / out.AllDetectors.NsPerEvent
	return out, nil
}
