package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// The CLI and raderd run one analysis pipeline, so for every detector
// name, with elision on and off, a local -json replay and a -remote one
// print the same bytes and exit with the same code.
func TestLocalRemoteParityEveryDetector(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	dets := []string{"none", "empty", "peer-set", "sp-bags", "sp+", "offset-span", "english-hebrew", "depa", "all"}
	for prog, path := range pipelineTraces(t) {
		for _, det := range dets {
			for _, elide := range []bool{false, true} {
				args := []string{"-replay", path, "-detector", det, "-json"}
				if elide {
					args = append(args, "-elide")
				}
				name := fmt.Sprintf("%s/%s/elide=%v", prog, det, elide)
				lcode, local, lerr := exec(t, args...)
				rcode, remote, rerr := exec(t, append([]string{"-remote", base}, args...)...)
				if lcode == exitError || rcode == exitError {
					t.Fatalf("%s: exit %d local, %d remote\n%s%s", name, lcode, rcode, lerr, rerr)
				}
				if lcode != rcode || local != remote {
					t.Fatalf("%s: local (exit %d) and remote (exit %d) verdicts differ:\nlocal:  %s\nremote: %s",
						name, lcode, rcode, local, remote)
				}
			}
		}
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
