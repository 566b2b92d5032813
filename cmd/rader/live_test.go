package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/report"
)

// -live resolves its programs through corpus.Lookup: -live list names
// every bridged program, and any other name, a benchmark included, exits 2
// listing them.
func TestLiveResolvesThroughCorpus(t *testing.T) {
	code, out, _ := exec(t, "-live", "list")
	if code != exitClean {
		t.Fatalf("-live list: exit %d\n%s", code, out)
	}
	names := corpus.LiveNames()
	if got := strings.Count(out, "\n"); got != len(names) {
		t.Fatalf("-live list printed %d lines, want %d:\n%s", got, len(names), out)
	}
	for _, name := range names {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-live list misses %s:\n%s", name, out)
		}
	}
	for _, bad := range []string{"dedup", "fig1", "no-such-program"} {
		code, _, errOut := exec(t, "-live", bad)
		if code != exitError {
			t.Errorf("-live %s: exit %d, want %d", bad, code, exitError)
		}
		for _, name := range names {
			if !strings.Contains(errOut, name) {
				t.Errorf("-live %s: error does not list %s: %s", bad, name, errOut)
			}
		}
	}
}

// A bridged program's live verdict and its serial depa verdict agree on
// the races, their counts and the verdict; only the parallel section and
// the spec label, which name how each ran, differ.
func TestLiveMatchesProgDepa(t *testing.T) {
	for _, name := range corpus.LiveNames() {
		lcode, liveOut, lerr := exec(t, "-live", name, "-json")
		pcode, progOut, perr := exec(t, "-prog", name, "-detector", "depa", "-json")
		if lcode == exitError || lcode != pcode {
			t.Fatalf("%s: exit %d live, %d -prog\n%s%s", name, lcode, pcode, lerr, perr)
		}
		var live, prog report.Report
		if err := json.Unmarshal([]byte(liveOut), &live); err != nil {
			t.Fatalf("%s live: %v\n%s", name, err, liveOut)
		}
		if err := json.Unmarshal([]byte(progOut), &prog); err != nil {
			t.Fatalf("%s -prog: %v\n%s", name, err, progOut)
		}
		if !reflect.DeepEqual(live.Races, prog.Races) || live.Distinct != prog.Distinct ||
			live.Total != prog.Total || live.Clean != prog.Clean {
			t.Fatalf("%s: live and -prog depa verdicts differ:\nlive:  %s\nprog:  %s", name, liveOut, progOut)
		}
		if strings.HasSuffix(name, "-racy") == live.Clean {
			t.Fatalf("%s: clean=%v", name, live.Clean)
		}
	}
}
