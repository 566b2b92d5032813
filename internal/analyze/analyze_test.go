package analyze

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

func record(t *testing.T, prog func(*cilk.Ctx)) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshal(t *testing.T, data []byte, opts Options) (*Result, string) {
	t.Helper()
	res, err := Trace(data, opts)
	if err != nil {
		t.Fatalf("%s elide=%v: %v", opts.Detector, opts.Elide, err)
	}
	b, err := res.Doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return res, string(b)
}

// Every detector's verdict is the same document with and without the
// elision pre-pass, and the result accounts for the stream and the
// detectors that consumed it.
func TestTraceElisionParity(t *testing.T) {
	dedup, err := apps.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string][]byte{
		"fig1":  record(t, progs.Fig1(mem.NewAllocator(), progs.Fig1Options{})),
		"dedup": record(t, dedup.Build(mem.NewAllocator(), apps.Test).Prog),
	}
	for name, data := range traces {
		for _, det := range rader.DetectorNames {
			full, fullDoc := marshal(t, data, Options{Detector: det})
			elided, elidedDoc := marshal(t, data, Options{Detector: det, Elide: true})
			if fullDoc != elidedDoc || full.Clean != elided.Clean {
				t.Fatalf("%s/%s: elided verdict differs:\nfull:   %s\nelided: %s", name, det, fullDoc, elidedDoc)
			}
			if full.Events == 0 || full.Events != elided.Events {
				t.Fatalf("%s/%s: events %d full, %d elided", name, det, full.Events, elided.Events)
			}
			if full.Plan != nil || elided.Plan == nil {
				t.Fatalf("%s/%s: plan must exist exactly when eliding", name, det)
			}
			want := map[rader.DetectorName]int{rader.None: 0, rader.EmptyTool: 0, rader.All: len(rader.AllDetectors)}
			n, ok := want[det]
			if !ok {
				n = 1
			}
			if len(full.Detectors) != n {
				t.Fatalf("%s/%s: %d detectors, want %d", name, det, len(full.Detectors), n)
			}
		}
	}
	if res, _ := marshal(t, traces["dedup"], Options{Detector: rader.All, Elide: true}); res.ElidedEvents == 0 || res.ElidedBytes == 0 {
		t.Fatalf("dedup elided nothing: %+v", res)
	}
}

// A damaged stream fails with its typed error under every detector,
// including the validate-only baselines, and an unknown detector name is
// rejected before any work.
func TestTraceErrors(t *testing.T) {
	data := record(t, progs.Fig1(mem.NewAllocator(), progs.Fig1Options{}))
	for _, det := range rader.DetectorNames {
		for _, elide := range []bool{false, true} {
			_, err := Trace(data[:len(data)-20], Options{Detector: det, Elide: elide})
			var se *streamerr.Error
			if !errors.As(err, &se) || se.Kind != streamerr.KindTruncated {
				t.Fatalf("%s elide=%v: truncated stream gave %v", det, elide, err)
			}
		}
	}
	if _, err := Trace(data, Options{Detector: "bogus"}); err == nil {
		t.Fatal("unknown detector accepted")
	}
}

// Each detector span carries the detector's event counts, shadow lookups
// included: depa counts its lookups while detecting, so the span must
// read them after detection has run.
func TestDetectorSpansCarryShadowLookups(t *testing.T) {
	data := record(t, progs.Fig1(mem.NewAllocator(), progs.Fig1Options{}))
	for _, det := range []rader.DetectorName{rader.Depa, rader.SPBags} {
		tr := obs.NewTrace()
		if _, err := Trace(data, Options{Detector: det, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		var lookups any
		for _, s := range tr.Spans() {
			if s.Name != "detector:"+string(det) {
				continue
			}
			for _, a := range s.Args {
				if a.Key == "shadowLookups" {
					lookups = a.Value
				}
			}
		}
		if n, ok := lookups.(uint64); !ok || n == 0 {
			t.Errorf("detector:%s span: shadowLookups = %v, want a positive count", det, lookups)
		}
	}
}
