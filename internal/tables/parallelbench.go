// Parallel-detection scaling measurement: the numbers behind
// BENCH_PR7.json's "parallel" section — the Figure-7-style table for the
// depa detector. For each workload the access log is recorded once, then
// the sharded detection phase runs at 1/2/4/8 shards with the shards
// timed one after another on the calling goroutine (depa's Sequential
// mode). The table reports critical-path speedup: the ratio of the
// one-shard detection time to the slowest shard's busy time at each
// shard count. This is the span of the detection phase — what wall-clock
// scaling converges to on a machine with enough cores — measured this
// way because CI containers often pin the suite to one CPU, where
// wall-clock "speedup" of concurrent goroutines is meaningless. The
// verdict-parity columns are measured, not assumed: every cell's report
// must be byte-identical to serial SP-bags'.
package tables

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/spbags"
	"repro/internal/trace"
	"repro/internal/wsrt"
)

// ParallelCell is one (workload, shard count) measurement.
type ParallelCell struct {
	Shards int `json:"shards"`
	// CriticalPathMs is the median (over trials) of the slowest shard's
	// busy time — the detection phase's span at this shard count.
	CriticalPathMs float64 `json:"criticalPathMs"`
	// TotalWorkMs is the median sum of all shard busy times — the
	// detection phase's work, which grows slowly with shard count (every
	// shard scans the log through a cheap page filter).
	TotalWorkMs float64 `json:"totalWorkMs"`
	// Speedup is the one-shard critical path over this cell's.
	Speedup float64 `json:"speedup"`
	// Parity records that this cell's verdict was byte-identical to
	// serial SP-bags' (modulo the provenance relation wording).
	Parity bool `json:"parity"`
}

// ParallelRow is one workload's scaling measurements.
type ParallelRow struct {
	Workload string `json:"workload"`
	Events   int64  `json:"events"`
	// Entries is the coalesced access-log size the detection phase
	// consumes; Accesses is the raw access count before coalescing.
	Entries  int64          `json:"entries"`
	Accesses int64          `json:"accesses"`
	Races    int            `json:"races"`
	Cells    []ParallelCell `json:"cells"`
	// Monotone reports that speedup never decreased as shards doubled,
	// with a 5% allowance for timer noise on sub-millisecond cells.
	Monotone bool `json:"monotone"`
}

// LiveCheck is one live-mode verification run: the workload executed on
// the work-stealing runtime with the live detector watching, checked
// against the serial SP-bags verdict.
type LiveCheck struct {
	Workload     string  `json:"workload"`
	Workers      int     `json:"workers"`
	Parity       bool    `json:"parity"`
	ShardMerges  int64   `json:"shardMerges"`
	FastPathRate float64 `json:"fastPathRate"`
}

// ParallelBench is the parallel-detection section of BENCH_PR7.json.
type ParallelBench struct {
	// Note pins the methodology so the numbers aren't misread as
	// wall-clock times from a many-core box.
	Note        string        `json:"note"`
	ShardCounts []int         `json:"shardCounts"`
	Rows        []ParallelRow `json:"rows"`
	Live        []LiveCheck   `json:"live"`
	// BestSpeedup is the largest speedup at the highest shard count —
	// the value the CI scaling gate reads.
	BestSpeedup float64 `json:"bestSpeedup"`
	// Parity is the conjunction of every replay cell's and live run's
	// verdict parity.
	Parity bool `json:"parity"`
}

// ParallelOptions configures MeasureParallel. The zero value measures
// the committed BENCH_PR7.json configuration.
type ParallelOptions struct {
	Trials      int
	ShardCounts []int // default 1, 2, 4, 8; must start at 1
	// Workload scales. The bench defaults are larger than the catalogue
	// entries so each cell's detection time is well above timer noise:
	// dedup's footprint spans a dozen shadow pages (it shards), ferret's
	// fits in one (it honestly doesn't), stress is page-per-leaf.
	DedupChunks   int
	FerretQueries int
	StressLeaves  int
	StressWork    int
	Progress      func(string)
}

// parallelWorkloads returns the measured workloads as (name, builder)
// pairs; the builder must yield an identical program for each fresh
// allocator so serial, replay and live runs see one address stream.
func parallelWorkloads(o ParallelOptions) []struct {
	name  string
	build func(al *mem.Allocator) func(depa.BCtx)
} {
	return []struct {
		name  string
		build func(al *mem.Allocator) func(depa.BCtx)
	}{
		{"dedup", func(al *mem.Allocator) func(depa.BCtx) { return depa.DedupWorkload(al, o.DedupChunks, false) }},
		{"ferret", func(al *mem.Allocator) func(depa.BCtx) {
			return depa.FerretWorkload(al, o.FerretQueries, 16, false)
		}},
		{"stress", func(al *mem.Allocator) func(depa.BCtx) {
			return depa.StressWorkload(al, o.StressLeaves, o.StressWork)
		}},
	}
}

// verdictKey renders a report for parity comparison across detectors:
// dedup counts, every race with both frames and provenance ordinals —
// everything except the relation wording, which legitimately differs
// between SP-bags ("writer in P-bag") and depa ("writer parallel").
func verdictKey(rp *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "distinct=%d total=%d\n", rp.Distinct(), rp.Total())
	for _, r := range rp.Races() {
		fmt.Fprintf(&b, "%v first=%d second=%d\n", r, r.Prov.FirstEvent, r.Prov.SecondEvent)
	}
	return b.String()
}

// MeasureParallel records each workload's event stream once, replays it
// into the depa detector at every shard count (timing the detection
// phase's shards sequentially), and runs the live detector on the
// work-stealing runtime at the same worker counts — verifying every
// verdict against serial SP-bags.
func MeasureParallel(o ParallelOptions) (*ParallelBench, error) {
	if o.Trials < 1 {
		o.Trials = 3
	}
	if len(o.ShardCounts) == 0 {
		o.ShardCounts = []int{1, 2, 4, 8}
	}
	if o.ShardCounts[0] != 1 {
		return nil, fmt.Errorf("tables: shard counts must start at 1 (got %v)", o.ShardCounts)
	}
	if o.DedupChunks == 0 {
		o.DedupChunks = 8192
	}
	if o.FerretQueries == 0 {
		o.FerretQueries = 1024
	}
	if o.StressLeaves == 0 {
		o.StressLeaves = 256
	}
	if o.StressWork == 0 {
		o.StressWork = 64
	}
	progress := o.Progress
	if progress == nil {
		progress = func(string) {}
	}

	out := &ParallelBench{
		Note: "criticalPathMs is the slowest shard's busy time with shards run sequentially " +
			"(depa Sequential mode); speedup is the detection phase's span ratio, not wall clock " +
			"on this host's core count",
		ShardCounts: o.ShardCounts,
		Parity:      true,
	}

	for _, w := range parallelWorkloads(o) {
		progress(fmt.Sprintf("parallel: recording %s", w.name))
		// One serial run records the trace and the SP-bags baseline.
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		bags := spbags.New()
		cilk.Run(depa.CilkProg(w.build(mem.NewAllocator())),
			cilk.Config{Hooks: cilk.Multi{tw, bags}})
		if err := tw.Close(); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		want := verdictKey(bags.Report())

		row := ParallelRow{Workload: w.name, Monotone: true}
		for _, shards := range o.ShardCounts {
			cell := ParallelCell{Shards: shards, Parity: true}
			crit := make([]time.Duration, o.Trials)
			work := make([]time.Duration, o.Trials)
			for t := 0; t < o.Trials; t++ {
				det := depa.New()
				det.Shards = shards
				det.Sequential = true
				events, err := trace.ReplayAll(data, nil, nil, det)
				if err != nil {
					return nil, fmt.Errorf("tables: replaying %s: %w", w.name, err)
				}
				rp := det.Report()
				if verdictKey(rp) != want {
					cell.Parity = false
					out.Parity = false
				}
				var max, sum time.Duration
				for _, d := range det.ShardTimes() {
					sum += d
					if d > max {
						max = d
					}
				}
				crit[t], work[t] = max, sum
				if t == 0 && shards == o.ShardCounts[0] {
					st := det.ParallelStats()
					row.Events = events
					row.Accesses = st.Accesses
					row.Entries = st.Accesses - st.FastPathHits
					row.Races = rp.Distinct()
				}
			}
			sort.Slice(crit, func(i, j int) bool { return crit[i] < crit[j] })
			sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
			cell.CriticalPathMs = float64(crit[o.Trials/2].Nanoseconds()) / 1e6
			cell.TotalWorkMs = float64(work[o.Trials/2].Nanoseconds()) / 1e6
			row.Cells = append(row.Cells, cell)
			progress(fmt.Sprintf("parallel: %s shards=%d critical-path=%.3fms", w.name, shards, cell.CriticalPathMs))
		}
		base := row.Cells[0].CriticalPathMs
		prev := 0.0
		for i := range row.Cells {
			if cp := row.Cells[i].CriticalPathMs; cp > 0 {
				row.Cells[i].Speedup = base / cp
			}
			if row.Cells[i].Speedup < prev*0.95 {
				row.Monotone = false
			}
			prev = row.Cells[i].Speedup
		}
		if s := row.Cells[len(row.Cells)-1].Speedup; s > out.BestSpeedup {
			out.BestSpeedup = s
		}
		out.Rows = append(out.Rows, row)

		// Live verification at the same counts: genuinely parallel
		// execution on the work-stealing runtime, verdict checked against
		// the same SP-bags baseline.
		for _, workers := range o.ShardCounts {
			live := depa.NewLive()
			live.Run(wsrt.New(workers), w.build(mem.NewAllocator()))
			st := live.ParallelStats()
			lc := LiveCheck{
				Workload:     w.name,
				Workers:      workers,
				Parity:       verdictKey(live.Report()) == want,
				ShardMerges:  st.ShardMerges,
				FastPathRate: st.FastPathRate(),
			}
			if !lc.Parity {
				out.Parity = false
			}
			out.Live = append(out.Live, lc)
		}
	}
	return out, nil
}

// Render formats the scaling table for benchtab's plain output.
func (pb *ParallelBench) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s", "workload", "entries", "races")
	for _, s := range pb.ShardCounts {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("s=%d", s))
	}
	fmt.Fprintf(&b, "  %s\n", "speedup@max")
	for _, row := range pb.Rows {
		fmt.Fprintf(&b, "%-8s %10d %8d", row.Workload, row.Entries, row.Races)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %7.3fms", c.CriticalPathMs)
		}
		last := row.Cells[len(row.Cells)-1]
		mono := ""
		if !row.Monotone {
			mono = " (non-monotone)"
		}
		fmt.Fprintf(&b, "  %.2fx%s\n", last.Speedup, mono)
	}
	ok, n := 0, 0
	for _, lc := range pb.Live {
		n++
		if lc.Parity {
			ok++
		}
	}
	fmt.Fprintf(&b, "live on wsrt: %d/%d runs byte-identical to serial SP-bags\n", ok, n)
	fmt.Fprintf(&b, "parity: %v   best critical-path speedup at %d shards: %.2fx\n",
		pb.Parity, pb.ShardCounts[len(pb.ShardCounts)-1], pb.BestSpeedup)
	fmt.Fprintf(&b, "note: %s\n", pb.Note)
	return b.String()
}
