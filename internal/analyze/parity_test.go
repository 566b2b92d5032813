package analyze

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden")

const parityGolden = "testdata/parity.golden"

// paritySpecs and parityDetectors span the documents the bag detectors
// print: every detector that keeps bags, alone and fanned out, under no
// steals, both StealAll reduce orders, a seeded random schedule and a
// depth cut.
var (
	paritySpecs     = []string{"none", "all", "all-eager", "random:3,8", "depth:2"}
	parityDetectors = []rader.DetectorName{rader.PeerSet, rader.SPBags, rader.SPPlus, rader.All}
)

// parityFaultEvents bounds the steal-all traces whose every event index
// takes every fault kind: the matrix costs the square of the trace.
const parityFaultEvents = 3000

type parityProg struct {
	name  string
	build func() func(*cilk.Ctx) // a fresh instance per call
}

// parityPrograms are the figures, the catalogue entries, the bridged
// programs, the benchmarks at test scale and a spread of seeded random
// programs.
func parityPrograms(t *testing.T) []parityProg {
	names := []string{"fig1", "fig1-early", "fig1-late", "fig1-fixed", "fig2"}
	for _, e := range corpus.All() {
		names = append(names, e.Name)
	}
	names = append(names, corpus.LiveNames()...)
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	// g spawns a and calls b with only the implicit sync at its return,
	// so a dropped or corrupted Sync leaves b in Peer-Set's SP bag and a
	// in the P bag of SP-bags and SP+: the missing-sync state errors.
	out := []parityProg{{"implicit-sync", func() func(*cilk.Ctx) {
		return func(c *cilk.Ctx) {
			c.Call("g", func(g *cilk.Ctx) {
				g.Spawn("a", func(*cilk.Ctx) {})
				g.Call("b", func(*cilk.Ctx) {})
			})
		}
	}}}
	for _, name := range names {
		p, _, err := corpus.Lookup(name, "test")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parityProg{name, p.Factory})
	}
	variants := []progs.RandomOpts{
		{MonoidStores: true, Reads: true},
		{Reads: true},
		{NoReducers: true},
		{MonoidStores: true, MaxDepth: 5},
	}
	for seed := int64(1); seed <= 120; seed++ {
		o := variants[seed%int64(len(variants))]
		o.Seed = seed
		out = append(out, parityProg{
			fmt.Sprintf("random-%d", seed),
			func() func(*cilk.Ctx) { return progs.Random(mem.NewAllocator(), o) },
		})
	}
	return out
}

// parityDigest hashes everything the bag detectors print for p: its
// report documents under every parity detector and spec, and, when its
// steal-all trace is short enough, the outcome of every fault kind at
// every event index replayed into each bag detector alone — the error
// text, or the verdict document when the replay succeeds.
func parityDigest(t *testing.T, p parityProg, replays *int) string {
	h := sha256.New()
	for _, det := range parityDetectors {
		for _, s := range paritySpecs {
			spec, err := sched.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "doc %s %s\n", det, s)
			res, _, err := Run(p.build(), rader.Config{Detector: det, Spec: spec})
			writeOutcome(t, h, res, err)
		}
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(p.build(), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	total, err := trace.ReplayAll(data, nil, nil, cilk.Empty{})
	if err != nil {
		t.Fatal(err)
	}
	if total >= parityFaultEvents {
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, name := range rader.AllDetectors {
		for kind := faults.FaultKind(0); kind < faults.NumKinds; kind++ {
			for at := int64(0); at < total; at++ {
				det, hooks, err := rader.NewDetector(name)
				if err != nil {
					t.Fatal(err)
				}
				plan := faults.Plan{Kind: kind, At: at}
				fmt.Fprintf(h, "fault %s %v\n", name, plan)
				n, err := trace.ReplayAll(data, nil, nil, faults.New(hooks, plan))
				var res *Result
				if err == nil {
					res = &Result{Doc: report.FromDetector(string(name), "", n, det)}
				}
				writeOutcome(t, h, res, err)
				*replays++
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeOutcome hashes a verdict document, or the error that replaced it.
func writeOutcome(t *testing.T, h hash.Hash, res *Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
		return
	}
	b, err := res.Doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// TestBagDetectorParityGolden pins what Peer-Set, SP-bags and SP+ print,
// byte for byte, on every parity program: their verdict documents and
// their response to every injected stream fault. A change to how the
// detectors store IDs must leave every digest as it is; rewrite the
// golden with -update only for an intended change of output.
func TestBagDetectorParityGolden(t *testing.T) {
	ps := parityPrograms(t)
	sums := make([]string, len(ps))
	replays := make([]int, len(ps))
	t.Run("programs", func(t *testing.T) {
		for i, p := range ps {
			i, p := i, p
			t.Run(p.name, func(t *testing.T) {
				t.Parallel()
				sums[i] = parityDigest(t, p, &replays[i])
			})
		}
	})
	var got strings.Builder
	total := 0
	for i, p := range ps {
		fmt.Fprintf(&got, "%s %s\n", p.name, sums[i])
		total += replays[i]
	}
	t.Logf("%d programs, %d documents, %d fault-injected replays",
		len(ps), len(ps)*len(parityDetectors)*len(paritySpecs), total)
	if *update {
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantBy := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		wantBy[name] = sum
	}
	for i, p := range ps {
		if wantBy[p.name] != sums[i] {
			t.Errorf("%s: digest %s, golden %s", p.name, sums[i], wantBy[p.name])
		}
		delete(wantBy, p.name)
	}
	for name := range wantBy {
		t.Errorf("%s: in the golden but not among the parity programs", name)
	}
}
