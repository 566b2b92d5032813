package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload for a few operations at test scale,
// untraced and traced, and checks the output contract. It makes no
// timing assertions. Run it from this directory: go test ./...

// specFile is BENCHMARK.json at the repository root.
type specFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func buildRaderd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "raderd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/raderd").CombinedOutput(); err != nil {
		t.Fatalf("building raderd: %v\n%s", err, out)
	}
	return bin
}

func smokeConfig(t *testing.T, workload string, traced bool, raderd string) *config {
	t.Helper()
	ans, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	// A tiny -seconds makes the load phase stop at minRounds rounds.
	return &config{
		workload: workload, seed: 1, seconds: 1e-3, traced: traced, scale: scaleTest,
		raderd: raderd, traceOut: filepath.Join(t.TempDir(), workload+".trace.json"),
		answers: ans, log: io.Discard,
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics the code produces, with the same units and
// directions.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, code %s %s %s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs, true)
	check("per_layer", spec.PerLayer, layerDefs, false)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and
// traced and checks that the result carries every metric BENCHMARK.json
// names, with its unit, and that every verdict matched its known answer.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	raderd := buildRaderd(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runWorkload(w, smokeConfig(t, w.name, traced, raderd))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s in %s, want %s", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := keys[k]; !ok || len(keys) != 4 {
					t.Errorf("%s: result line keys %v, want exactly correct, attempted, failed, metrics", w.name, keys)
				}
			}
		}
	}
}

// TestCorruptedAnswerCountsAsFailure corrupts one known answer and checks
// that the operations checked against it fail.
func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	cfg := smokeConfig(t, "replay", false, "")
	key := replayKey("collision@test", "all")
	a, ok := cfg.answers[key]
	if !ok {
		t.Fatalf("no known answer %s", key)
	}
	a.SHA256 = strings.Repeat("0", 64)
	cfg.answers[key] = a
	w, _ := lookupWorkload("replay")
	res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every round, the warm-up round included, runs each trace × path
	// once, so exactly one operation in each round's set fails.
	perRound := len(traceInputs(scaleTest)) * len(replayPaths)
	if res.Correct || res.Failed == 0 || res.Failed*perRound != res.Attempted {
		t.Errorf("correct %v with %d of %d failed; want the one collision/all operation of every %d failed",
			res.Correct, res.Failed, res.Attempted, perRound)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 {
		t.Errorf("fail_frac = %v, want > 0", frac)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7, 3}, 2, 5, 8}, // Python extrapolates below two points
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareVerdicts feeds compare ten alternating pairs in which one
// metric regresses, one gains, and one is too noisy to call.
func TestCompareVerdicts(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
		{"name": "verdict_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.05}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	base, change := &runsFile{}, &runsFile{}
	for i := 0; i < 10; i++ {
		noise := float64(i%5) * 0.04 // a 16% spread in setup_s on both sides
		b := map[string]metric{
			"verdicts_per_s": {Value: 100 + float64(i%3)*0.1},
			"verdict_ms_p50": {Value: 10 + float64(i%3)*0.01},
			"setup_s":        {Value: 1 + noise},
		}
		c := map[string]metric{
			"verdicts_per_s": {Value: 90 + float64(i%3)*0.1}, // 10% fewer verdicts
			"verdict_ms_p50": {Value: 9 + float64(i%3)*0.01}, // 10% faster in every pair
			"setup_s":        {Value: 1 + float64((i+2)%5)*0.04},
		}
		first, second := 2*i, 2*i+1
		if i%2 == 1 {
			first, second = second, first
		}
		base.Runs = append(base.Runs, runEntry{Workload: "live", Seq: first, Result: result{Correct: true, Attempted: 1, Metrics: b}})
		change.Runs = append(change.Runs, runEntry{Workload: "live", Seq: second, Result: result{Correct: true, Attempted: 1, Metrics: c}})
	}
	var out strings.Builder
	if !compare(&out, spec, base, change) {
		t.Error("compare did not report the regression")
	}
	row := out.String()[strings.LastIndex(out.String(), "live "):]
	for _, want := range []string{"regression: verdicts_per_s", "gain: verdict_ms_p50", "unresolved: setup_s"} {
		if !strings.Contains(row, want) {
			t.Errorf("summary row %q lacks %q\n%s", row, want, out.String())
		}
	}
}
