package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles the two command-line tools once per test binary.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"rader", "stealgen"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func runCmd(t *testing.T, bin string, wantExit int, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s", bin, args, exit, wantExit, out)
	}
	return string(out)
}

func TestCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t)
	rader := filepath.Join(dir, "rader")
	stealgen := filepath.Join(dir, "stealgen")

	t.Run("rader-clean", func(t *testing.T) {
		out := runCmd(t, rader, 0, "-prog", "fib", "-scale", "test", "-detector", "sp+", "-spec", "all", "-v")
		for _, want := range []string{"no races detected", "verify: ok", "disjoint-set:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in:\n%s", want, out)
			}
		}
	})
	t.Run("rader-racy-exits-1", func(t *testing.T) {
		out := runCmd(t, rader, 1, "-prog", "fig1", "-detector", "sp+", "-spec", "all")
		if !strings.Contains(out, "determinacy race") || !strings.Contains(out, "replay with:") {
			t.Fatalf("race output malformed:\n%s", out)
		}
	})
	t.Run("rader-replay", func(t *testing.T) {
		out := runCmd(t, rader, 1, "-prog", "fig1", "-detector", "sp+", "-spec", "all")
		var label string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "replay with: -spec '") {
				label = strings.TrimSuffix(strings.TrimPrefix(line, "replay with: -spec '"), "'")
			}
		}
		if label == "" {
			t.Fatalf("no replay label in:\n%s", out)
		}
		again := runCmd(t, rader, 1, "-prog", "fig1", "-detector", "sp+", "-spec", label)
		if !strings.Contains(again, "determinacy race") {
			t.Fatalf("replay did not reproduce:\n%s", again)
		}
	})
	t.Run("rader-coverage", func(t *testing.T) {
		out := runCmd(t, rader, 1, "-prog", "fig1", "-coverage")
		if !strings.Contains(out, "determinacy: 1 distinct race(s)") {
			t.Fatalf("coverage output:\n%s", out)
		}
		clean := runCmd(t, rader, 0, "-prog", "fig1-fixed", "-coverage")
		if !strings.Contains(clean, "no races under any specification") {
			t.Fatalf("clean coverage output:\n%s", clean)
		}
	})
	t.Run("rader-peer-set", func(t *testing.T) {
		out := runCmd(t, rader, 1, "-prog", "fig2", "-reads", "1,9", "-detector", "peer-set")
		if !strings.Contains(out, "view-read race") {
			t.Fatalf("view-read output:\n%s", out)
		}
		runCmd(t, rader, 0, "-prog", "fig2", "-reads", "5,9", "-detector", "peer-set")
	})
	t.Run("rader-offset-span", func(t *testing.T) {
		runCmd(t, rader, 0, "-prog", "fib", "-scale", "test", "-detector", "offset-span")
	})
	t.Run("rader-dot", func(t *testing.T) {
		out := runCmd(t, rader, 0, "-prog", "fig2", "-dot")
		if !strings.Contains(out, "digraph") {
			t.Fatalf("dot output:\n%s", out)
		}
	})
	t.Run("rader-trace-roundtrip", func(t *testing.T) {
		tr := filepath.Join(dir, "fig1.trace")
		out := runCmd(t, rader, 0, "-prog", "fig1", "-spec", "all", "-record", tr)
		if !strings.Contains(out, "trace recorded") {
			t.Fatalf("record output:\n%s", out)
		}
		rep := runCmd(t, rader, 1, "-replay", tr, "-detector", "sp+")
		if !strings.Contains(rep, "determinacy race") || !strings.Contains(rep, "replayed") {
			t.Fatalf("replay output:\n%s", rep)
		}
	})
	t.Run("rader-bad-flags", func(t *testing.T) {
		runCmd(t, rader, 2, "-prog", "nope")
		runCmd(t, rader, 2, "-prog", "fib", "-detector", "tsan")
		runCmd(t, rader, 2, "-prog", "fib", "-spec", "bogus")
	})
	t.Run("stealgen", func(t *testing.T) {
		out := runCmd(t, stealgen, 0, "-prog", "knapsack", "-scale", "test", "-list")
		for _, want := range []string{"max sync block K=", "Theorem 6", "Theorem 7", "single:1"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("rader-json", func(t *testing.T) {
		out := runCmd(t, rader, 1, "-prog", "fig1", "-spec", "all", "-json")
		if !strings.Contains(out, `"kind":"determinacy race"`) || !strings.Contains(out, `"viewAware":true`) {
			t.Fatalf("json output:\n%s", out)
		}
	})
}

// TestExamples builds and runs every example binary, asserting the stable
// lines of their output so the walkthroughs cannot rot.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cases := []struct {
		name  string
		wants []string
	}{
		{"quickstart", []string{"sum = 499500", "view-read race", "sp+ with steals"}},
		{"listrace", []string{"sp+ under steal-all", "replayed:", "clean=true across"}},
		{"viewread", []string{"VIEW-READ RACE", "safe (same peer set)"}},
		{"coverage", []string{"FOUND by", "One schedule is not enough"}},
		{"determinism", []string{"pbfs", "NOT ostensibly deterministic", "opadd reducer"}},
		{"pbfs", []string{"levels identical to serial BFS", "steal everything"}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(dir, tc.name)
			if b, err := exec.Command("go", "build", "-o", bin, "./examples/"+tc.name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, b)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(string(out), want) {
					t.Fatalf("missing %q in:\n%s", want, out)
				}
			}
		})
	}
}
