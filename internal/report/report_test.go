package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/depa"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/spplus"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/name, rewriting under -update.
// These files pin the wire schema: a diff here means the JSON contract
// with remote clients changed and Schema must be bumped.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(bytes.TrimRight(want, "\n"), got) {
		t.Errorf("schema drift against %s:\ngot:  %s\nwant: %s", path, got, want)
	}
}

// fixedReport builds a report with one race of each kind, fully populated,
// so the golden file exercises every field and omission rule.
func fixedReport() *core.Report {
	rp := &core.Report{}
	rp.Add(core.Race{
		Kind:    core.ViewRead,
		Reducer: "sum",
		First:   core.Access{Frame: 3, Label: "u", Path: "main>u", Op: core.OpReducerRead},
		Second:  core.Access{Frame: 1, Label: "main", Path: "main", Op: core.OpReducerRead},
		Prov:    core.Provenance{FirstEvent: 5, SecondEvent: 9, Relation: "reader in P-bag"},
	})
	rp.Add(core.Race{
		Kind:   core.Determinacy,
		Addr:   0x2a,
		First:  core.Access{Frame: 4, Label: "w", Op: core.OpWrite},
		Second: core.Access{Frame: 1, Label: "main", Op: core.OpRead, ViewAware: true, ViewOp: cilk.OpUpdate, VID: 7},
		// FirstEvent omitted: the golden also pins the unknown-ordinal rule.
		Prov: core.Provenance{SecondEvent: 12, Relation: "writer on parallel view"},
	})
	// A duplicate report of the first race bumps Total past Distinct.
	rp.Add(core.Race{
		Kind:    core.ViewRead,
		Reducer: "sum",
		First:   core.Access{Frame: 3, Label: "u", Path: "main>u", Op: core.OpReducerRead},
		Second:  core.Access{Frame: 1, Label: "main", Path: "main", Op: core.OpReducerRead},
	})
	return rp
}

func TestRunReportGolden(t *testing.T) {
	doc := FromCore("sp+", "all", 123, fixedReport())
	b, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "run_report.golden", b)
}

func TestEmptyReportGolden(t *testing.T) {
	doc := FromCore("none", "", 0, nil)
	b, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "empty_report.golden", b)
}

// The sweep document is pinned against a real corpus sweep so it also
// locks in the canonical ordering rader.Sweep guarantees.
func TestSweepReportGolden(t *testing.T) {
	var entry corpus.Entry
	for _, e := range corpus.All() {
		if e.Name == "figure1-shallow-copy" {
			entry = e
			break
		}
	}
	cr := rader.Sweep(func() func(*cilk.Ctx) {
		return entry.Build(mem.NewAllocator())
	}, rader.SweepOptions{Workers: 4})
	b, err := FromCoverage(cr).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "sweep_report.golden", b)
}

// The all-detectors document nests one fully-populated sub-report per
// detector; the golden file pins its field order and omission rules.
func TestAllReportGolden(t *testing.T) {
	out := &rader.Outcome{
		Detector: rader.All,
		Detectors: []core.Detector{
			fixedDetector{name: rader.PeerSet, rp: fixedReport()},
			fixedDetector{name: rader.SPBags, rp: &core.Report{}},
			fixedDetector{name: rader.SPPlus, rp: fixedReport()},
		},
	}
	b, err := FromAllOutcome(out, "all").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "all_report.golden", b)
}

// fixedDetector is a detector that watched nothing and reports rp.
type fixedDetector struct {
	cilk.Empty
	name rader.DetectorName
	rp   *core.Report
}

func (d fixedDetector) Name() string         { return string(d.name) }
func (d fixedDetector) Report() *core.Report { return d.rp }

// The parallel stats section (schema 4) gets its own golden pinning field
// order and the rate's float rendering; the serial goldens above pin the
// omission rule (no "parallel" key).
func TestParallelReportGolden(t *testing.T) {
	doc := FromCore("depa", "", 123, fixedReport())
	doc.Parallel = ParallelFrom(depa.ParallelStats{
		Workers: 8, ShardMerges: 9, FastPathHits: 90, Accesses: 120,
	})
	b, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "parallel_report.golden", b)
}

// FromDetector attaches the parallel section exactly when the detector
// provides it.
func TestFromDetectorAttachesParallel(t *testing.T) {
	det := depa.New()
	det.Shards = 2
	cilk.Run(func(c *cilk.Ctx) { c.Store(1); c.Store(1) }, cilk.Config{Hooks: det})
	doc := FromDetector("depa", "", 0, det)
	if doc.Parallel == nil {
		t.Fatal("depa report is missing the parallel section")
	}
	if doc.Parallel.Workers != 2 || doc.Parallel.Accesses != 2 || doc.Parallel.FastPathHits != 1 {
		t.Fatalf("parallel section = %+v, want workers=2 accesses=2 fastPathHits=1", doc.Parallel)
	}
	serial := FromDetector("sp-bags", "", 0, spplus.NewSPBags())
	if serial.Parallel != nil {
		t.Fatal("serial detector report grew a parallel section")
	}
}

// Marshaling the same value twice must be byte-identical — the property
// the digest-addressed cache and the remote/local diff test rely on.
func TestMarshalDeterministic(t *testing.T) {
	doc := FromCore("sp+", "all", 99, fixedReport())
	a, _ := doc.Marshal()
	b, _ := doc.Marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("marshaling is not deterministic")
	}
}

// A document's race text is the detector's: for every race any corpus
// entry elicits under any detector, serially and under steal-all, the
// document's Race.String equals core.Race.String, so a verdict printed
// from a remote document reads exactly like one printed locally.
func TestRaceTextMatchesCore(t *testing.T) {
	dets := []rader.DetectorName{rader.PeerSet, rader.SPBags, rader.SPPlus, rader.Depa}
	kinds := map[string]int{}
	for _, e := range corpus.All() {
		for _, det := range dets {
			for _, spec := range []cilk.StealSpec{cilk.NoSteals{}, cilk.StealAll{}} {
				out, err := rader.Run(e.Build(mem.NewAllocator()), rader.Config{Detector: det, Spec: spec})
				if err != nil {
					t.Fatalf("%s/%s: %v", e.Name, det, err)
				}
				races := out.Detectors[0].Report().Races()
				doc := FromOutcome(out, "")
				if len(doc.Races) != len(races) {
					t.Fatalf("%s/%s: document has %d races, detector %d", e.Name, det, len(doc.Races), len(races))
				}
				for i, r := range races {
					if got, want := doc.Races[i].String(), r.String(); got != want {
						t.Errorf("%s/%s: race text differs:\ndocument: %s\ndetector: %s", e.Name, det, got, want)
					}
					kinds[doc.Races[i].Kind]++
				}
			}
		}
	}
	if kinds[core.ViewRead.String()] == 0 || kinds[core.Determinacy.String()] == 0 {
		t.Fatalf("the corpus elicited races of too few kinds to check: %v", kinds)
	}
}
