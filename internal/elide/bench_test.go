package elide_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/elide"
	"repro/internal/mem"
)

// BenchmarkAnalyze times the elision pass alone over each app's
// steal-all trace at small scale, with its allocations.
func BenchmarkAnalyze(b *testing.B) {
	for _, app := range apps.All() {
		data := record(b, app.Build(mem.NewAllocator(), apps.Small).Prog, cilk.StealAll{})
		b.Run(app.Name, func(b *testing.B) {
			plan, err := elide.Analyze(data)
			if err != nil {
				b.Fatal(err)
			}
			events := plan.Audit().OriginalEvents
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := elide.Analyze(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
		})
	}
}
