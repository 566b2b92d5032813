package elide_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/analyze"
	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/depa"
	"repro/internal/elide"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

// record runs prog under spec and returns the encoded v2 trace.
func record(t testing.TB, prog func(*cilk.Ctx), spec cilk.StealSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: spec, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// detCase is one detector configuration the parity suite replays under.
type detCase struct {
	name   string
	shards int // depa only; 0 = not depa
}

var parityCases = []detCase{
	{name: string(rader.PeerSet)},
	{name: string(rader.SPBags)},
	{name: string(rader.SPPlus)},
	{name: string(rader.Depa), shards: 1},
	{name: string(rader.Depa), shards: 3},
	{name: string(rader.Depa), shards: 8},
}

func newCase(t testing.TB, c detCase) (core.Detector, cilk.Hooks) {
	t.Helper()
	if c.shards > 0 {
		d := depa.New()
		d.Shards = c.shards
		return d, d
	}
	d, hooks, err := rader.NewDetector(rader.DetectorName(c.name))
	if err != nil {
		t.Fatalf("detector %s: %v", c.name, err)
	}
	return d, hooks
}

// docSingle replays data (optionally under skip) into one detector and
// marshals the verdict document.
func docSingle(t testing.TB, data []byte, c detCase, skip *trace.SkipSet) []byte {
	t.Helper()
	det, hooks := newCase(t, c)
	n, err := trace.ReplayAll(data, skip, nil, hooks)
	if err != nil {
		t.Fatalf("replay %s: %v", c.name, err)
	}
	doc, err := report.FromDetector(c.name, "", n, det).Marshal()
	if err != nil {
		t.Fatalf("marshal %s: %v", c.name, err)
	}
	return doc
}

// docAll replays data into the all-detectors fan-out and marshals the
// Multi document.
func docAll(t testing.TB, data []byte, skip *trace.SkipSet) ([]byte, *report.Multi) {
	t.Helper()
	dets := rader.NewAllDetectors()
	hooks := make([]cilk.Hooks, len(dets))
	for i, d := range dets {
		hooks[i] = d.(cilk.Hooks)
	}
	n, err := trace.ReplayAll(data, skip, nil, hooks...)
	if err != nil {
		t.Fatalf("replay all: %v", err)
	}
	m := report.FromDetectors("", n, dets)
	doc, err := m.Marshal()
	if err != nil {
		t.Fatalf("marshal all: %v", err)
	}
	return doc, m
}

// requireParity asserts the three ways of applying a plan — full trace,
// filtered trace, skip-set replay — produce byte-identical documents for
// every detector configuration.
func requireParity(t *testing.T, name string, data []byte) {
	t.Helper()
	plan, err := elide.Analyze(data)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	filtered, fst, err := plan.Filter(data)
	if err != nil {
		t.Fatalf("%s: filter: %v", name, err)
	}
	if fst.KeptEvents != plan.Audit().FilteredEvents {
		t.Fatalf("%s: filter kept %d events, audit says %d", name, fst.KeptEvents, plan.Audit().FilteredEvents)
	}
	if fst.ElidedBytes != plan.Audit().ElidedBytes {
		t.Fatalf("%s: filter elided %d bytes, audit says %d", name, fst.ElidedBytes, plan.Audit().ElidedBytes)
	}
	for _, c := range parityCases {
		label := c.name
		if c.shards > 0 {
			label = fmt.Sprintf("%s@%d", c.name, c.shards)
		}
		full := docSingle(t, data, c, nil)

		viaFile := docSingle(t, filtered, c, nil)
		var viaFileDoc report.Report
		mustUnmarshal(t, viaFile, &viaFileDoc)
		plan.FixupReport(&viaFileDoc)
		got, err := viaFileDoc.Marshal()
		if err != nil {
			t.Fatalf("%s/%s: remarshal: %v", name, label, err)
		}
		if !bytes.Equal(full, got) {
			t.Errorf("%s/%s: filtered-file report differs\n full: %s\nelide: %s", name, label, full, got)
		}

		viaSkip := docSingle(t, data, c, plan.SkipSet())
		var viaSkipDoc report.Report
		mustUnmarshal(t, viaSkip, &viaSkipDoc)
		plan.FixupReport(&viaSkipDoc)
		got, err = viaSkipDoc.Marshal()
		if err != nil {
			t.Fatalf("%s/%s: remarshal: %v", name, label, err)
		}
		if !bytes.Equal(full, got) {
			t.Errorf("%s/%s: skip-replay report differs\n full: %s\nelide: %s", name, label, full, got)
		}
	}

	fullAll, _ := docAll(t, data, nil)
	_, m := docAll(t, filtered, nil)
	plan.FixupMulti(m)
	got, err := m.Marshal()
	if err != nil {
		t.Fatalf("%s: remarshal multi: %v", name, err)
	}
	if !bytes.Equal(fullAll, got) {
		t.Errorf("%s: all-detectors filtered report differs\n full: %s\nelide: %s", name, fullAll, got)
	}
}

func mustUnmarshal(t testing.TB, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

// TestElideParityCorpus is the headline soundness gate: across the
// whole program corpus, under serial and steal-everything schedules,
// race reports from filtered traces (both application modes) are
// byte-identical to full-trace reports for every detector, including
// depa at several shard counts and the all-detectors fan-out.
func TestElideParityCorpus(t *testing.T) {
	for _, e := range corpus.All() {
		for _, sc := range []struct {
			tag  string
			spec cilk.StealSpec
		}{{"serial", cilk.NoSteals{}}, {"steal-all", cilk.StealAll{}}} {
			name := e.Name + "/" + sc.tag
			al := mem.NewAllocator()
			data := record(t, e.Build(al), sc.spec)
			requireParity(t, name, data)
		}
	}
}

// TestElideV1Trace covers the legacy footerless format: a v1 stream
// filters to a v1 stream and the parity contract holds unchanged.
func TestElideV1Trace(t *testing.T) {
	e := corpus.All()[0]
	al := mem.NewAllocator()
	data := record(t, e.Build(al), cilk.StealAll{})
	v1 := append([]byte(trace.MagicV1), data[len(trace.Magic):len(data)-13]...)
	requireParity(t, e.Name+"/v1", v1)

	plan, err := elide.Analyze(v1)
	if err != nil {
		t.Fatalf("analyze v1: %v", err)
	}
	filtered, _, err := plan.Filter(v1)
	if err != nil {
		t.Fatalf("filter v1: %v", err)
	}
	if !bytes.HasPrefix(filtered, []byte(trace.MagicV1)) {
		t.Fatalf("filtered v1 stream lost its magic header")
	}
}

// TestElideShrink pins the point of the pass: a race-free program's
// trace loses its access events entirely, and the filtered stream still
// replays clean under everything.
func TestElideShrink(t *testing.T) {
	var entry *corpus.Entry
	all := corpus.All()
	for i := range all {
		if all[i].Name == "oblivious-sync-separated" {
			entry = &all[i]
			break
		}
	}
	if entry == nil {
		t.Fatal("corpus entry oblivious-sync-separated missing")
	}
	al := mem.NewAllocator()
	data := record(t, entry.Build(al), cilk.StealAll{})
	plan, err := elide.Analyze(data)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	aud := plan.Audit()
	if aud.KeptAccesses != 0 {
		t.Fatalf("clean program kept %d accesses:\n%+v", aud.KeptAccesses, aud.Classes)
	}
	if aud.ElidedEvents == 0 || aud.Shrink <= 1 {
		t.Fatalf("nothing elided: %+v", aud)
	}
	for _, cs := range aud.Classes {
		if cs.Class == elide.ClassMustKeep {
			t.Fatalf("clean program classified addresses must-keep: %+v", cs)
		}
		if len(cs.Ranges) == 0 || cs.Addresses == 0 || cs.Events == 0 {
			t.Fatalf("empty class summary: %+v", cs)
		}
	}
}

// TestElideAppsParityAndShrink is the elision gate on the paper's
// benchmarks: each app's steal-all trace at small scale yields the same
// all-detectors document from analyze.Trace with elision as without, and
// the dedup and ferret traces lose at least 4 in 5 of their events. The
// shrink is an event count, the same on every run and every host.
func TestElideAppsParityAndShrink(t *testing.T) {
	minShrink := map[string]float64{"dedup": 5, "ferret": 5}
	for _, app := range apps.All() {
		data := record(t, app.Build(mem.NewAllocator(), apps.Small).Prog, cilk.StealAll{})
		var docs [2][]byte
		var plan *elide.Plan
		for i, on := range []bool{false, true} {
			res, err := analyze.Trace(data, analyze.Options{Detector: rader.All, Elide: on})
			if err != nil {
				t.Fatalf("%s elide=%v: %v", app.Name, on, err)
			}
			if docs[i], err = res.Doc.Marshal(); err != nil {
				t.Fatalf("%s elide=%v: marshal: %v", app.Name, on, err)
			}
			plan = res.Plan
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("%s: elided verdict differs\n full: %s\nelide: %s", app.Name, docs[0], docs[1])
		}
		aud := plan.Audit()
		if aud.Shrink < minShrink[app.Name] {
			t.Errorf("%s: trace shrank %.2fx, want >= %.0fx", app.Name, aud.Shrink, minShrink[app.Name])
		}
		t.Logf("%s: %d events, %d after elision, shrink %.2fx", app.Name, aud.OriginalEvents, aud.FilteredEvents, aud.Shrink)
	}
}

// TestElideAuditDeterministic: analyzing the same trace twice yields
// byte-identical audit artifacts (the artifact is committed by CI runs
// and diffed).
func TestElideAuditDeterministic(t *testing.T) {
	e := corpus.All()[0]
	al := mem.NewAllocator()
	data := record(t, e.Build(al), cilk.StealAll{})
	p1, err := elide.Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := elide.Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p1.Audit().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.Audit().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatalf("audit not deterministic:\n%s\nvs\n%s", a1, a2)
	}
}

// TestElideFilteredStreamIntegrity: the filtered stream is a valid v2
// stream — fresh footer, correct event count — and its replay skips
// nothing further.
func TestElideFilteredStreamIntegrity(t *testing.T) {
	e := corpus.All()[0]
	al := mem.NewAllocator()
	data := record(t, e.Build(al), cilk.StealAll{})
	plan, err := elide.Analyze(data)
	if err != nil {
		t.Fatal(err)
	}
	filtered, fst, err := plan.Filter(data)
	if err != nil {
		t.Fatal(err)
	}
	var st trace.ReplayStats
	n, err := trace.ReplayAll(filtered, nil, &st)
	if err != nil {
		t.Fatalf("filtered stream does not replay: %v", err)
	}
	if n != fst.KeptEvents {
		t.Fatalf("filtered stream replays %d events, filter kept %d", n, fst.KeptEvents)
	}
	if st.Skipped != 0 {
		t.Fatalf("plain replay reports %d skipped events", st.Skipped)
	}
	var sst trace.ReplayStats
	nSkip, err := trace.ReplayAll(data, plan.SkipSet(), &sst)
	if err != nil {
		t.Fatalf("skip replay: %v", err)
	}
	if nSkip != plan.Audit().OriginalEvents {
		t.Fatalf("skip replay consumed %d events, original %d", nSkip, plan.Audit().OriginalEvents)
	}
	if sst.Skipped != plan.Audit().ElidedEvents {
		t.Fatalf("skip replay skipped %d, audit elided %d", sst.Skipped, plan.Audit().ElidedEvents)
	}
}

// TestFrameIDOverflowRejected: a v1 stream whose spawned child is
// encoded as frame 2^32+1 would, truncated to cilk.FrameID, replay as
// frame 1 and skew the audit's byte accounting. The decoder and Analyze
// both reject it as malformed instead.
func TestFrameIDOverflowRejected(t *testing.T) {
	const child = 1<<32 + 1
	// Raw v1 records: kind byte, then unsigned varints (and a
	// length-prefixed label on frame entry).
	rec := func(b []byte, kind byte, args ...uint64) []byte {
		b = append(b, kind)
		for _, a := range args {
			b = binary.AppendUvarint(b, a)
		}
		return b
	}
	label := func(b []byte, l string) []byte { return append(binary.AppendUvarint(b, uint64(len(l))), l...) }
	const (
		programStart = 1
		programEnd   = 2
		enterSpawn   = 3
		enterCall    = 4
		frameReturn  = 5
		sync         = 6
		store        = 15
	)
	data := rec([]byte(trace.MagicV1), programStart)
	data = label(rec(data, enterCall, 0), "main")
	data = label(rec(data, enterSpawn, child), "child")
	data = rec(data, store, child, 64)
	data = rec(data, frameReturn, child, 0)
	data = rec(data, store, 0, 64)
	data = rec(data, sync, 0)
	data = rec(data, programEnd)

	_, err := trace.ReplayAll(data, nil, nil, cilk.Empty{})
	if kindOf(t, "ReplayAll", err) != streamerr.KindMalformed {
		t.Fatalf("ReplayAll: %v, want a malformed-input error", err)
	}
	_, err = elide.Analyze(data)
	if kindOf(t, "Analyze", err) != streamerr.KindMalformed {
		t.Fatalf("Analyze: %v, want a malformed-input error", err)
	}
}
