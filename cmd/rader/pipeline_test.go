package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rader"
	"repro/internal/service"
)

// pipelineTraces records the parity corpus under steal-all: the paper's
// figures plus two benchmarks whose traces elision shrinks.
func pipelineTraces(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{}
	for _, prog := range []string{"fig1", "fig1-fixed", "fig2", "dedup", "ferret"} {
		path := filepath.Join(dir, prog+".trace")
		code, out, errOut := exec(t, "-prog", prog, "-scale", "test", "-spec", "all", "-record", path)
		if code != exitClean {
			t.Fatalf("record %s: exit %d\n%s%s", prog, code, out, errOut)
		}
		paths[prog] = path
	}
	return paths
}

// surfaceLines are the line prefixes a surface prints around a verdict:
// the headers before it (program, timing, verification, elision, replay
// banner, remote URL, live sweep progress) and the local replay hint
// after it.
var surfaceLines = []string{"program: ", "detector: ", "verify: ", "VERIFY FAILED", "elision: ",
	"replayed ", "remote: ", "sweep progress: ", "replay with: "}

// verdictBlock drops a plain run's surface lines, leaving the verdict
// text its report document printed.
func verdictBlock(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		surface := false
		for _, p := range surfaceLines {
			surface = surface || strings.HasPrefix(line, p)
		}
		if !surface {
			b.WriteString(line)
		}
	}
	return b.String()
}

// requireLocalRemoteParity runs args locally and with -remote base. Under
// -json both print the same bytes; in plain mode both print the same
// verdict block under their own headers. Either way they exit with the
// same code.
func requireLocalRemoteParity(t *testing.T, base, name string, args ...string) {
	t.Helper()
	lcode, local, lerr := exec(t, args...)
	rcode, remote, rerr := exec(t, append([]string{"-remote", base}, args...)...)
	if lcode == exitError || rcode == exitError {
		t.Fatalf("%s: exit %d local, %d remote\n%s%s", name, lcode, rcode, lerr, rerr)
	}
	if !slices.Contains(args, "-json") {
		local, remote = verdictBlock(local), verdictBlock(remote)
		if local == "" {
			t.Fatalf("%s: no verdict block in plain output", name)
		}
	}
	if lcode != rcode || local != remote {
		t.Fatalf("%s: local (exit %d) and remote (exit %d) verdicts differ:\nlocal:  %s\nremote: %s",
			name, lcode, rcode, local, remote)
	}
}

// The CLI and raderd run one analysis pipeline and print verdicts from
// one document, so for every detector name, with elision on and off, a
// local -json replay and a -remote one print the same bytes, plain runs
// print the same verdict block, and both exit with the same code.
func TestLocalRemoteParityEveryDetector(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	for prog, path := range pipelineTraces(t) {
		for _, det := range rader.DetectorNames {
			for _, elide := range []bool{false, true} {
				for _, jsonOut := range []bool{true, false} {
					args := []string{"-replay", path, "-detector", string(det)}
					if elide {
						args = append(args, "-elide")
					}
					if jsonOut {
						args = append(args, "-json")
					}
					requireLocalRemoteParity(t, base, fmt.Sprintf("%s/%s/elide=%v/json=%v", prog, det, elide, jsonOut), args...)
				}
			}
		}
	}
}

// Every surface resolves program names through one catalogue, runs them
// through one pipeline and prints verdicts from one document, so for a
// named program (the bridged ones included) under every detector name and
// schedule, a local -json run and a -remote one print the same bytes,
// plain runs print the same verdict block, and both exit with the same
// code; so do their -coverage sweeps, sampled ones included.
func TestLocalRemoteParityNamedPrograms(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	progs := append([]string{"fig1", "fig1-fixed", "fig2", "view-read-early-get", "clean-reducer-sum", "dedup", "pbfs"},
		corpus.LiveNames()...)
	for _, prog := range progs {
		for _, det := range rader.DetectorNames {
			for _, spec := range []string{"none", "all"} {
				args := []string{"-prog", prog, "-scale", "test", "-detector", string(det), "-spec", spec}
				name := fmt.Sprintf("%s/%s/%s", prog, det, spec)
				requireLocalRemoteParity(t, base, name, append(args, "-json")...)
				requireLocalRemoteParity(t, base, name+"/plain", args...)
			}
		}
	}
	for _, jsonOut := range []bool{true, false} {
		coverage := func(name string, args ...string) {
			if jsonOut {
				args = append(args, "-json")
			}
			requireLocalRemoteParity(t, base, fmt.Sprintf("%s/json=%v", name, jsonOut), args...)
		}
		coverage("view-read-early-get/coverage", "-prog", "view-read-early-get", "-coverage")
		// Families of 10 and 36 specifications, sampled down to 5: the
		// sampling caveat is part of the verdict on both sides.
		coverage("knapsack/coverage-sampled", "-prog", "knapsack", "-scale", "test", "-coverage", "-sweep-sample", "5")
		coverage("pbfs/coverage-sampled", "-prog", "pbfs", "-scale", "test", "-coverage", "-sweep-sample", "5")
	}
	code, out, _ := exec(t, "-remote", base, "-prog", "knapsack", "-scale", "test", "-coverage", "-sweep-sample", "5")
	if code != exitClean || !strings.Contains(out, "a clean verdict covers only the sampled schedules") {
		t.Fatalf("remote sampled sweep lost the sampling caveat (exit %d):\n%s", code, out)
	}
}

// Flags the daemon cannot honour fail with exit 2 under -remote instead
// of being dropped in favour of some other verdict.
func TestRemoteRejectsLocalOnlyFlags(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 1})
	path := filepath.Join(t.TempDir(), "run.trace")
	for _, args := range [][]string{
		{"-prog", "fig1", "-spec", "all", "-record", path},
		{"-prog", "fig1", "-dot"},
		{"-live", "dedup"},
		{"-prog", "fig2", "-reads", "3,5", "-detector", "peer-set"},
		{"-replay", path, "-elide-audit", filepath.Join(t.TempDir(), "audit.json")},
	} {
		code, out, errOut := exec(t, append([]string{"-remote", base}, args...)...)
		if code != exitError || !strings.Contains(errOut, "local-only") {
			t.Errorf("%v: exit %d, want %d naming the local-only flag\n%s%s", args, code, exitError, out, errOut)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-remote -record wrote %s", path)
	}
	// -reads at its default names the program raderd runs.
	if code, out, errOut := exec(t, "-remote", base, "-prog", "fig2", "-reads", "1,9", "-json"); code != exitClean {
		t.Errorf("-remote -reads 1,9: exit %d\n%s%s", code, out, errOut)
	}
}

// Detectors none and empty replay as a validate-only pass: the stream is
// decoded and integrity-checked, the verdict is an empty clean report,
// and a damaged trace still fails with exit 2.
func TestReplayValidateOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	if code, _, _ := exec(t, "-prog", "fig1", "-spec", "all", "-record", path); code != exitClean {
		t.Fatal("record failed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, det := range []string{"none", "empty"} {
		code, out, errOut := exec(t, "-replay", path, "-detector", det, "-json")
		if code != exitClean {
			t.Fatalf("%s: racy trace validated with exit %d, want %d\n%s%s", det, code, exitClean, out, errOut)
		}
		want := fmt.Sprintf(`"detector":%q`, det)
		if !strings.Contains(out, want) || !strings.Contains(out, `"clean":true`) {
			t.Fatalf("%s: validate-only verdict is not an empty clean report:\n%s", det, out)
		}
		code, out, _ = exec(t, "-replay", path, "-detector", det)
		if code != exitClean || !strings.Contains(out, "stream validated") {
			t.Fatalf("%s: plain validate-only replay: exit %d\n%s", det, code, out)
		}
		code, _, errOut = exec(t, "-replay", cut, "-detector", det)
		if code != exitError || !strings.Contains(errOut, "truncated") {
			t.Fatalf("%s: truncated trace: exit %d, want %d naming the truncation\n%s", det, code, exitError, errOut)
		}
	}
}
