// Elision measurement: the numbers behind BENCH_PR8.json. The static
// elision pass (internal/elide) proves trace accesses race-free before
// any detector runs; this harness records each benchmark, measures how
// much of its trace the pass removes, checks the soundness contract
// (filtered verdicts byte-identical to full-trace verdicts under the
// all-detectors fan-out), and times full versus elided replay.
package tables

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/elide"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/trace"
)

// ElideApp is one benchmark's elision measurement.
type ElideApp struct {
	App            string `json:"app"`
	OriginalEvents int64  `json:"originalEvents"`
	FilteredEvents int64  `json:"filteredEvents"`
	ElidedBytes    int64  `json:"elidedBytes"`
	TraceBytes     int    `json:"traceBytes"`
	// Shrink is original/filtered event count — the replay-work ratio.
	Shrink float64 `json:"shrink"`
	// Parity: the all-detectors verdict of the filtered trace (after
	// ordinal fixup) is byte-identical to the full trace's.
	Parity bool `json:"parity"`
	// AnalyzeMS is the elision pass itself; FullReplayMS and
	// ElidedReplayMS are the whole all-detectors analysis without and
	// with elision — the elided figure includes AnalyzeMS plus the
	// skip-set replay and fixup (medians over trials).
	AnalyzeMS      float64 `json:"analyzeMs"`
	FullReplayMS   float64 `json:"fullReplayMs"`
	ElidedReplayMS float64 `json:"elidedReplayMs"`
}

// ElideBench is the elision section of BENCH_PR8.json.
type ElideBench struct {
	Scale string     `json:"scale"`
	Apps  []ElideApp `json:"apps"`
	// DedupShrink and FerretShrink are the acceptance headline: the PR's
	// gate demands >= 5x on both.
	DedupShrink  float64 `json:"dedupShrink"`
	FerretShrink float64 `json:"ferretShrink"`
	// Parity is the conjunction over apps — false anywhere means the
	// elision pass is unsound and every other number is moot.
	Parity bool `json:"parity"`
}

// medianMS times f over trials and returns the median in milliseconds.
func medianMS(trials int, f func()) float64 {
	f() // warm pools and intern tables
	samples := make([]time.Duration, trials)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2].Nanoseconds()) / 1e6
}

// allDetectorsDoc analyzes data under the all-detectors fan-out, with
// or without the elision pre-pass, and returns the marshaled Multi
// verdict.
func allDetectorsDoc(data []byte, elideOn bool) ([]byte, error) {
	res, err := analyze.Trace(data, analyze.Options{Detector: rader.All, Elide: elideOn})
	if err != nil {
		return nil, err
	}
	return res.Doc.Marshal()
}

// MeasureElide records every benchmark at the given scale under
// steal-all, runs the elision pass, and reports shrink, parity and
// replay timings per app.
func MeasureElide(trials int, scale apps.Scale, scaleName string) (*ElideBench, error) {
	if trials < 1 {
		trials = 3
	}
	out := &ElideBench{Scale: scaleName, Parity: true}
	for _, app := range apps.All() {
		al := mem.NewAllocator()
		inst := app.Build(al, scale)
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		cilk.Run(inst.Prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
		if err := tw.Close(); err != nil {
			return nil, fmt.Errorf("recording %s: %w", app.Name, err)
		}
		data := buf.Bytes()

		plan, err := elide.Analyze(data)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", app.Name, err)
		}
		aud := plan.Audit()
		row := ElideApp{
			App:            app.Name,
			OriginalEvents: aud.OriginalEvents,
			FilteredEvents: aud.FilteredEvents,
			ElidedBytes:    aud.ElidedBytes,
			TraceBytes:     len(data),
			Shrink:         aud.Shrink,
		}

		full, err := allDetectorsDoc(data, false)
		if err != nil {
			return nil, fmt.Errorf("full replay of %s: %w", app.Name, err)
		}
		elided, err := allDetectorsDoc(data, true)
		if err != nil {
			return nil, fmt.Errorf("elided replay of %s: %w", app.Name, err)
		}
		row.Parity = bytes.Equal(full, elided)
		out.Parity = out.Parity && row.Parity

		row.AnalyzeMS = medianMS(trials, func() {
			if _, err := elide.Analyze(data); err != nil {
				panic(err)
			}
		})
		row.FullReplayMS = medianMS(trials, func() {
			if _, err := allDetectorsDoc(data, false); err != nil {
				panic(err)
			}
		})
		row.ElidedReplayMS = medianMS(trials, func() {
			if _, err := allDetectorsDoc(data, true); err != nil {
				panic(err)
			}
		})

		switch app.Name {
		case "dedup":
			out.DedupShrink = row.Shrink
		case "ferret":
			out.FerretShrink = row.Shrink
		}
		out.Apps = append(out.Apps, row)
	}
	return out, nil
}

// Render formats the elision table for the terminal, ending with the
// greppable gate line CI keys on.
func (b *ElideBench) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %10s %8s %7s %10s %10s %10s\n",
		"app", "events", "filtered", "shrink", "parity", "analyze", "full", "elided")
	for _, a := range b.Apps {
		parity := "ok"
		if !a.Parity {
			parity = "FAIL"
		}
		fmt.Fprintf(&sb, "%-10s %10d %10d %7.2fx %7s %8.2fms %8.2fms %8.2fms\n",
			a.App, a.OriginalEvents, a.FilteredEvents, a.Shrink, parity,
			a.AnalyzeMS, a.FullReplayMS, a.ElidedReplayMS)
	}
	fmt.Fprintf(&sb, "elide-gate: dedup %.2fx ferret %.2fx parity %v (target >= 5x, byte-identical verdicts)\n",
		b.DedupShrink, b.FerretShrink, b.Parity)
	return sb.String()
}
