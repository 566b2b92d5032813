package corpus

import (
	"testing"

	"repro/internal/apps"
)

// raderd hashes a program's identity into its cache keys, store keys and
// sweep journal, so a changed identity silently orphans every stored
// verdict and every journaled job. The table pins each one.
func TestLookupIdentities(t *testing.T) {
	type key struct{ name, scale string }
	want := map[key]string{
		{"fig1", ""}:       "program\x00fig1",
		{"fig1-early", ""}: "program\x00fig1-early",
		{"fig1-late", ""}:  "program\x00fig1-late",
		{"fig1-fixed", ""}: "program\x00fig1-fixed",
		{"fig2", ""}:       "program\x00fig2",

		{"clean-reducer-sum", ""}:              "program\x00corpus\x00clean-reducer-sum",
		{"view-read-early-get", ""}:            "program\x00corpus\x00view-read-early-get",
		{"view-read-set-after-spawn", ""}:      "program\x00corpus\x00view-read-set-after-spawn",
		{"oblivious-write-read", ""}:           "program\x00corpus\x00oblivious-write-read",
		{"oblivious-write-write-siblings", ""}: "program\x00corpus\x00oblivious-write-write-siblings",
		{"oblivious-sync-separated", ""}:       "program\x00corpus\x00oblivious-sync-separated",
		{"oblivious-call-serial", ""}:          "program\x00corpus\x00oblivious-call-serial",
		{"update-write-vs-oblivious-read", ""}: "program\x00corpus\x00update-write-vs-oblivious-read",
		{"figure1-shallow-copy", ""}:           "program\x00corpus\x00figure1-shallow-copy",
		{"figure1-deep-copy", ""}:              "program\x00corpus\x00figure1-deep-copy",
		{"reduce-strand-race-hidden", ""}:      "program\x00corpus\x00reduce-strand-race-hidden",
		{"create-identity-race", ""}:           "program\x00corpus\x00create-identity-race",
		{"holder-private-scratch", ""}:         "program\x00corpus\x00holder-private-scratch",
		{"ostream-clean", ""}:                  "program\x00corpus\x00ostream-clean",
		{"bag-clean", ""}:                      "program\x00corpus\x00bag-clean",
		{"linked-list-clean", ""}:              "program\x00corpus\x00linked-list-clean",
		{"view-read-in-spawned-child", ""}:     "program\x00corpus\x00view-read-in-spawned-child",
		{"nested-frames-clean", ""}:            "program\x00corpus\x00nested-frames-clean",
		{"oblivious-read-read", ""}:            "program\x00corpus\x00oblivious-read-read",
		{"two-reducers-one-racy-read", ""}:     "program\x00corpus\x00two-reducers-one-racy-read",

		{"collision", "test"}:  "program\x00app\x00collision\x00test",
		{"collision", "small"}: "program\x00app\x00collision\x00small",
		{"collision", "bench"}: "program\x00app\x00collision\x00bench",
		{"dedup", "test"}:      "program\x00app\x00dedup\x00test",
		{"dedup", "small"}:     "program\x00app\x00dedup\x00small",
		{"dedup", "bench"}:     "program\x00app\x00dedup\x00bench",
		{"ferret", "test"}:     "program\x00app\x00ferret\x00test",
		{"ferret", "small"}:    "program\x00app\x00ferret\x00small",
		{"ferret", "bench"}:    "program\x00app\x00ferret\x00bench",
		{"fib", "test"}:        "program\x00app\x00fib\x00test",
		{"fib", "small"}:       "program\x00app\x00fib\x00small",
		{"fib", "bench"}:       "program\x00app\x00fib\x00bench",
		{"knapsack", "test"}:   "program\x00app\x00knapsack\x00test",
		{"knapsack", "small"}:  "program\x00app\x00knapsack\x00small",
		{"knapsack", "bench"}:  "program\x00app\x00knapsack\x00bench",
		{"pbfs", "test"}:       "program\x00app\x00pbfs\x00test",
		{"pbfs", "small"}:      "program\x00app\x00pbfs\x00small",
		{"pbfs", "bench"}:      "program\x00app\x00pbfs\x00bench",
		// A bare raderd request gets the test scale.
		{"pbfs", ""}: "program\x00app\x00pbfs\x00test",
	}
	for k, id := range want {
		p, got, err := Lookup(k.name, k.scale)
		if err != nil {
			t.Errorf("Lookup(%q, %q): %v", k.name, k.scale, err)
			continue
		}
		if got != id {
			t.Errorf("Lookup(%q, %q) identity = %q, want %q", k.name, k.scale, got, id)
		}
		if p.Build().Prog == nil {
			t.Errorf("Lookup(%q, %q) built no program", k.name, k.scale)
		}
	}
	// Every catalogued program is pinned.
	for _, e := range All() {
		if _, ok := want[key{e.Name, ""}]; !ok {
			t.Errorf("corpus entry %q has no pinned identity", e.Name)
		}
	}
	for _, a := range apps.All() {
		if _, ok := want[key{a.Name, "test"}]; !ok {
			t.Errorf("benchmark %q has no pinned identity", a.Name)
		}
	}
}

// The bridged programs are pinned the same way, and exactly they carry a
// Bridged body, so rader -live accepts them and nothing else.
func TestLookupBridgedIdentities(t *testing.T) {
	want := map[string]string{
		"dedup-kernel":       "program\x00bridged\x00dedup-kernel",
		"dedup-kernel-racy":  "program\x00bridged\x00dedup-kernel-racy",
		"ferret-kernel":      "program\x00bridged\x00ferret-kernel",
		"ferret-kernel-racy": "program\x00bridged\x00ferret-kernel-racy",
		"stress":             "program\x00bridged\x00stress",
	}
	names := LiveNames()
	if len(names) != len(want) {
		t.Fatalf("LiveNames() = %v, want the %d pinned programs", names, len(want))
	}
	for _, name := range names {
		p, id, err := Lookup(name, "")
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if id != want[name] {
			t.Errorf("Lookup(%q) identity = %q, want %q", name, id, want[name])
		}
		if p.Bridged == nil || p.Bridged() == nil || p.Build().Prog == nil {
			t.Errorf("Lookup(%q) lacks a serial or a bridged body", name)
		}
	}
	for _, name := range []string{"fig1", "clean-reducer-sum", "dedup", "ferret"} {
		if p, _, err := Lookup(name, "test"); err != nil || p.Bridged != nil {
			t.Errorf("Lookup(%q): err %v, bridged %v; only bridged programs run live", name, err, p.Bridged != nil)
		}
	}
}
