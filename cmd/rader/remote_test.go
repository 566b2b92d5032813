package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// startDaemon serves the same handler cmd/raderd mounts, on a loopback
// listener, and returns its base URL plus the server handle for metric
// inspection.
func startDaemon(t *testing.T, cfg service.Config) (*service.Server, string) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// The acceptance path: record a trace locally, submit it twice via
// -remote; the second response is a cache hit, and the remote verdict is
// byte-for-byte the local -json verdict for the same trace.
func TestRemoteAnalyzeRoundTrip(t *testing.T) {
	srv, base := startDaemon(t, service.Config{Workers: 2})
	path := filepath.Join(t.TempDir(), "run.trace")

	code, out, errOut := exec(t, "-prog", "fig1", "-spec", "all", "-record", path)
	if code != exitClean {
		t.Fatalf("record: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "sha256 ") {
		t.Fatalf("record banner must announce the digest:\n%s", out)
	}

	code, localJSON, _ := exec(t, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("local replay: exit %d\n%s", code, localJSON)
	}

	code, remoteJSON, errOut := exec(t, "-remote", base, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("remote replay: exit %d\n%s%s", code, remoteJSON, errOut)
	}
	if remoteJSON != localJSON {
		t.Fatalf("remote and local verdicts must match byte-for-byte:\nremote: %s\nlocal:  %s",
			remoteJSON, localJSON)
	}
	if srv.CacheHits() != 0 {
		t.Fatalf("first submission must miss, hits=%d", srv.CacheHits())
	}

	code, remote2, errOut := exec(t, "-remote", base, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("second remote replay: exit %d\n%s%s", code, remote2, errOut)
	}
	if remote2 != remoteJSON {
		t.Fatalf("cached verdict drifted:\n%s\nvs\n%s", remote2, remoteJSON)
	}
	if srv.CacheHits() != 1 {
		t.Fatalf("second submission must hit the cache, hits=%d", srv.CacheHits())
	}

	// The human-readable mode reports the cache disposition.
	code, out, _ = exec(t, "-remote", base, "-replay", path, "-detector", "sp+")
	if code != exitRaces {
		t.Fatalf("plain remote replay: exit %d", code)
	}
	if !strings.Contains(out, "served from cache") || !strings.Contains(out, "race") {
		t.Fatalf("plain output must show cache state and races:\n%s", out)
	}
}

// Named programs analyze remotely without any upload.
func TestRemoteNamedProgram(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	code, out, errOut := exec(t, "-remote", base, "-prog", "fig1", "-spec", "all", "-detector", "sp+")
	if code != exitRaces {
		t.Fatalf("remote named analysis: exit %d\n%s%s", code, out, errOut)
	}
	code, out, _ = exec(t, "-remote", base, "-prog", "fig1-fixed", "-spec", "all", "-detector", "sp+")
	if code != exitClean {
		t.Fatalf("remote clean program: exit %d\n%s", code, out)
	}
}

// -remote -coverage submits an async sweep job and polls it to a verdict.
func TestRemoteCoverageSweep(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	code, out, errOut := exec(t, "-remote", base, "-prog", "fig1", "-coverage")
	if code != exitRaces {
		t.Fatalf("remote sweep: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "determinacy:") {
		t.Fatalf("sweep summary missing:\n%s", out)
	}
	// JSON mode emits the verdict document alone.
	code, jsonOut, _ := exec(t, "-remote", base, "-prog", "fig1", "-coverage", "-json")
	if code != exitRaces {
		t.Fatalf("remote sweep json: exit %d", code)
	}
	if !strings.HasPrefix(jsonOut, `{"schema":`) {
		t.Fatalf("json sweep output must be the bare document:\n%s", jsonOut)
	}
}

// Sweep lanes run program instances concurrently, so a local sweep must
// build a fresh instance per run, as raderd does: apps that carry mutable
// state print byte-identical verdicts at 1 and 8 workers, and the same
// bytes raderd returns for the same program.
func TestCoverageSweepWidthAndRemoteParity(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 2})
	for _, prog := range []string{"pbfs", "dedup"} {
		sweep := func(extra ...string) (int, string) {
			args := append([]string{"-prog", prog, "-scale", "test", "-coverage", "-json"}, extra...)
			code, out, errOut := exec(t, args...)
			if code != exitClean && code != exitRaces {
				t.Fatalf("%s %v: exit %d\n%s%s", prog, extra, code, out, errOut)
			}
			return code, out
		}
		code1, w1 := sweep("-sweep-workers", "1")
		code8, w8 := sweep("-sweep-workers", "8")
		if code1 != code8 || w1 != w8 {
			t.Fatalf("%s: sweep differs between 1 and 8 workers (exit %d vs %d):\n1: %s\n8: %s",
				prog, code1, code8, w1, w8)
		}
		if prog != "pbfs" {
			continue
		}
		codeR, remote := sweep("-remote", base)
		if codeR != code1 || remote != w1 {
			t.Fatalf("%s: remote sweep differs from local (exit %d vs %d):\nremote: %s\nlocal:  %s",
				prog, codeR, code1, remote, w1)
		}
	}
}

// Daemon errors surface as exit 2 with the server's explanation.
func TestRemoteErrors(t *testing.T) {
	_, base := startDaemon(t, service.Config{Workers: 1})
	code, _, errOut := exec(t, "-remote", base, "-prog", "no-such-program")
	if code != exitError {
		t.Fatalf("unknown remote program: exit %d", code)
	}
	if !strings.Contains(errOut, "unknown program") {
		t.Fatalf("daemon detail missing: %s", errOut)
	}
	code, _, errOut = exec(t, "-remote", "http://127.0.0.1:1", "-prog", "fig1")
	if code != exitError {
		t.Fatalf("unreachable daemon: exit %d", code)
	}
	if !strings.Contains(errOut, "reaching raderd") {
		t.Fatalf("connection error missing: %s", errOut)
	}
}

// Local -json output across modes is a single schema-bearing document.
func TestLocalJSONModes(t *testing.T) {
	code, out, _ := exec(t, "-prog", "fig1", "-spec", "all", "-detector", "sp+", "-json")
	if code != exitRaces || !strings.HasPrefix(out, `{"schema":`) {
		t.Fatalf("run -json: exit %d\n%s", code, out)
	}
	code, out, _ = exec(t, "-prog", "fig1-fixed", "-coverage", "-json")
	if code != exitClean || !strings.HasPrefix(out, `{"schema":`) {
		t.Fatalf("coverage -json: exit %d\n%s", code, out)
	}
}
