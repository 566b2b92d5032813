package depa

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

// shardSink keeps the timed detectShard calls' results live.
var shardSink []pendingRace

// BenchmarkShardCriticalPath measures how the sharded detection phase
// scales with the shard count on any host, however many cores it has:
// each iteration times detectShard once at one shard, then each shard of
// the count one after another, and the critical-path-x metric is the
// one-shard time over the slowest shard's. That ratio is the detection
// phase's span, what wall-clock scaling converges to given a core per
// shard. dedup (13 shadow pages) and stress (a page per leaf) give the
// page-granular shards work to split; ferret's footprint is about one
// page, so it cannot scale.
func BenchmarkShardCriticalPath(b *testing.B) {
	workloads := []struct {
		name  string
		build func(al *mem.Allocator) func(progs.BCtx)
	}{
		{"dedup", func(al *mem.Allocator) func(progs.BCtx) { return progs.DedupWorkload(al, 8192, false) }},
		{"ferret", func(al *mem.Allocator) func(progs.BCtx) { return progs.FerretWorkload(al, 1024, 16, false) }},
		{"stress", func(al *mem.Allocator) func(progs.BCtx) { return progs.StressWorkload(al, 256, 64) }},
	}
	for _, w := range workloads {
		d := New()
		cilk.Run(progs.CilkProg(w.build(mem.NewAllocator())), cilk.Config{Hooks: d})
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", w.name, shards), func(b *testing.B) {
				var one, span time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					shardSink = detectShard(d.entries, d.strands, &d.lin, 0, 1)
					one += time.Since(t0)
					var slowest time.Duration
					for s := 0; s < shards; s++ {
						t0 := time.Now()
						shardSink = detectShard(d.entries, d.strands, &d.lin, s, shards)
						slowest = max(slowest, time.Since(t0))
					}
					span += slowest
				}
				b.ReportMetric(float64(one)/float64(span), "critical-path-x")
			})
		}
	}
}
