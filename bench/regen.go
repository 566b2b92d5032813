package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/trace"
)

// regenExpected recomputes the known answers of every fixed input at one
// scale and merges them into the file at path. It refuses to write unless
// the cross-path contracts hold on every trace input: live steal-all ≡
// replay ≡ elided ≡ serve, SP-bags ≡ depa race sets, sweeps identical at
// one and two workers, and, at test scale, SP+ inside the dag oracle's
// sandwich.
func regenExpected(scale, path string, w io.Writer) error {
	got := map[string]answer{}
	add := func(key string, doc []byte) error {
		a, err := answerOf(doc)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		got[key] = a
		return nil
	}
	if err := regenLive(scale, add); err != nil {
		return err
	}
	if err := regenTraces(scale, add, w); err != nil {
		return err
	}
	if err := regenSweeps(scale, add); err != nil {
		return err
	}
	if scale == scaleTest {
		if err := checkOracle(w); err != nil {
			return err
		}
	}

	f := expectedFile{Schema: expectedSchema, Answers: map[string]answer{}}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for k, a := range got {
		f.Answers[k] = a
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d answers (%d recomputed) to %s\n", len(f.Answers), len(got), path)
	return nil
}

// regenLive records every live cell, with every pick from the
// reductions pool, after checking the app's own output.
func regenLive(scale string, add func(string, []byte) error) error {
	for _, a := range liveApps(scale) {
		k := specgen.Measure(a.build().Prog).MaxSyncBlock
		for _, c := range liveConfigs {
			picks := 1
			if c.name == "sp+/reductions" {
				picks = reductionSpecs
			}
			for p := 0; p < picks; p++ {
				var spec cilk.StealSpec
				if c.spec != nil {
					spec = c.spec(k, p)
				}
				ins := a.build()
				doc, _, err := liveVerdict(nil, ins.Prog, c.det, spec)
				if err != nil {
					return fmt.Errorf("%s: %w", liveKey(a, c, p), err)
				}
				if err := ins.Verify(); err != nil {
					return fmt.Errorf("%s: %w", liveKey(a, c, p), err)
				}
				if err := add(liveKey(a, c, p), doc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// regenTraces records the trace inputs and checks the replay-side
// contracts on each before taking its verdicts as known answers.
func regenTraces(scale string, add func(string, []byte) error, w io.Writer) error {
	plain := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer plain.Close()
	elided := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer elided.Close()
	rp := trace.NewReplayer()
	for _, a := range traceInputs(scale) {
		t, err := appTrace(a)
		if err != nil {
			return err
		}
		docs, err := localVerdicts(rp, t.data)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if err := checkTraceContracts(rp, a, t, docs); err != nil {
			return fmt.Errorf("%s: contract broken: %w", t.name, err)
		}
		for i, srv := range []string{plain.URL, elided.URL} {
			for _, det := range []string{string(rader.SPPlus), string(rader.Depa), "all"} {
				u := fmt.Sprintf("%s/analyze?detector=%s&elide=%d", srv, url.QueryEscape(det), i)
				if err := checkServe(u, t.data, docs[det]); err != nil {
					return fmt.Errorf("%s: serve ≡ replay broken (%s, elide=%d): %w", t.name, det, i, err)
				}
			}
		}
		for det, doc := range docs {
			if err := add(replayKey(t.name, det), doc); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s: live ≡ replay ≡ elided ≡ serve, sp-bags ≡ depa\n", t.name)
	}
	return nil
}

func checkTraceContracts(rp *trace.Replayer, a appAt, t *traceInput, docs map[string][]byte) error {
	el, _, err := replayElided(nil, rp, t.data)
	if err != nil {
		return err
	}
	if !bytes.Equal(el, docs["all"]) {
		return errors.New("elided all-detector verdict differs from the full replay's")
	}
	var replayed report.Multi
	if err := json.Unmarshal(docs["all"], &replayed); err != nil {
		return err
	}
	out, err := rader.Run(a.build().Prog, rader.Config{Detector: rader.All, Spec: cilk.StealAll{}})
	if err != nil {
		return err
	}
	live := report.FromAllOutcome(out, "all")
	for i, sub := range live.Reports {
		if !sameRaces(sub.Races, replayed.Reports[i].Races, false) {
			return fmt.Errorf("live steal-all %s races differ from the replay's", sub.Detector)
		}
	}
	var dp report.Report
	if err := json.Unmarshal(docs[string(rader.Depa)], &dp); err != nil {
		return err
	}
	liveDepa, err := rader.Run(a.build().Prog, rader.Config{Detector: rader.Depa, Spec: cilk.StealAll{}})
	if err != nil {
		return err
	}
	if !sameRaces(report.FromOutcome(liveDepa, "all").Races, dp.Races, false) {
		return errors.New("live steal-all depa races differ from the replay's")
	}
	for _, sub := range replayed.Reports {
		if sub.Detector == string(rader.SPBags) && !sameRaces(sub.Races, dp.Races, true) {
			return errors.New("sp-bags and depa race sets differ")
		}
	}
	return nil
}

// sameRaces compares two race lists as JSON, optionally ignoring the
// relation wording in the provenance (depa names its own relations).
func sameRaces(a, b []report.Race, ignoreRelation bool) bool {
	norm := func(rs []report.Race) []byte {
		out := make([]report.Race, len(rs))
		copy(out, rs)
		for i := range out {
			if ignoreRelation && out[i].Provenance != nil {
				p := *out[i].Provenance
				p.Relation = ""
				out[i].Provenance = &p
			}
		}
		data, _ := json.Marshal(out)
		return data
	}
	return bytes.Equal(norm(a), norm(b))
}

func checkServe(u string, data, want []byte) error {
	body, status, err := post(http.DefaultClient, u, data)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("HTTP %d: %s", status, body)
	}
	var resp struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if !bytes.Equal(resp.Report, want) {
		return errors.New("service verdict differs from the local replay's")
	}
	return nil
}

// regenSweeps sweeps every input at one worker and at two, which must
// agree byte for byte.
func regenSweeps(scale string, add func(string, []byte) error) error {
	for _, in := range sweepInputs(scale) {
		one, _, err := sweepVerdict(nil, in, 1)
		if err != nil {
			return err
		}
		two, _, err := sweepVerdict(nil, in, 2)
		if err != nil {
			return err
		}
		if !bytes.Equal(one, two) {
			return fmt.Errorf("%s: 1-worker and 2-worker sweeps differ", in.name)
		}
		if err := add(sweepKey(in), one); err != nil {
			return err
		}
	}
	return nil
}

// checkOracle checks SP+ against the dag oracle's sandwich on every app
// at test scale under steal-all: every physically racy address is
// reported, and nothing outside the literal §5 condition is.
func checkOracle(w io.Writer) error {
	for _, a := range appsAt(apps.Test, appNames...) {
		rec := dag.NewRecorder()
		det := spplus.New()
		cilk.Run(a.build().Prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: cilk.Multi{rec, det}})
		physical, liberal := rec.D.RacyAddrs(), rec.D.LiberalRacyAddrs()
		got := map[mem.Addr]bool{}
		for _, r := range det.Report().Races() {
			got[r.Addr] = true
		}
		for addr := range physical {
			if !got[addr] {
				return fmt.Errorf("%s: SP+ missed physically racy address %#x", a, addr)
			}
		}
		var extra []string
		for addr := range got {
			if !liberal[addr] {
				extra = append(extra, fmt.Sprintf("%#x", addr))
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("%s: SP+ reported %v beyond the literal §5 condition", a, extra)
		}
		fmt.Fprintf(w, "%s: SP+ inside the dag oracle sandwich (%d physical, %d reported, %d liberal)\n",
			a, len(physical), len(got), len(liberal))
	}
	return nil
}
