package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
)

func TestReportDedup(t *testing.T) {
	var rp Report
	r := Race{Kind: Determinacy, Addr: 42, First: Access{Frame: 1}, Second: Access{Frame: 2}}
	for i := 0; i < 5; i++ {
		rp.Add(r)
	}
	if rp.Total() != 5 {
		t.Fatalf("total = %d, want 5", rp.Total())
	}
	if rp.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1", rp.Distinct())
	}
	if len(rp.Races()) != 1 {
		t.Fatalf("retained = %d, want 1", len(rp.Races()))
	}
}

func TestReportDistinguishesKeys(t *testing.T) {
	var rp Report
	rp.Add(Race{Kind: Determinacy, Addr: 1, First: Access{Frame: 1}, Second: Access{Frame: 2}})
	rp.Add(Race{Kind: Determinacy, Addr: 2, First: Access{Frame: 1}, Second: Access{Frame: 2}})
	rp.Add(Race{Kind: ViewRead, Reducer: "sum", First: Access{Frame: 1}, Second: Access{Frame: 2}})
	rp.Add(Race{Kind: ViewRead, Reducer: "list", First: Access{Frame: 1}, Second: Access{Frame: 2}})
	rp.Add(Race{Kind: Determinacy, Addr: 1, First: Access{Frame: 3}, Second: Access{Frame: 2}})
	if rp.Distinct() != 5 {
		t.Fatalf("distinct = %d, want 5", rp.Distinct())
	}
}

func TestReportLimit(t *testing.T) {
	rp := Report{Limit: 2}
	for i := 0; i < 10; i++ {
		rp.Add(Race{Kind: Determinacy, Addr: 100, First: Access{Frame: 1}, Second: Access{Frame: cilk.FrameID(2 + i)}})
	}
	if got := len(rp.Races()); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	if rp.Distinct() != 10 {
		t.Fatalf("distinct = %d, want 10 (limit caps retention, not counting)", rp.Distinct())
	}
}

// The admit contract: Admit counts every report and admits a key once,
// only while fewer than Limit races are kept; Keep keeps what Admit
// admitted, in detection order.
func TestReportAdmitContract(t *testing.T) {
	race := func(i int) Race {
		return Race{Kind: Determinacy, Addr: mem.Addr(i), First: Access{Frame: 1}, Second: Access{Frame: 2}}
	}
	rp := Report{Limit: 3}
	var admitted []int
	// Keys 0..5 in order, each reported twice in a row, then key 0 again.
	order := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}
	for _, i := range order {
		r := race(i)
		if rp.Admit(r.Kind, r.Addr, r.Reducer, r.First.Frame, r.Second.Frame) {
			admitted = append(admitted, i)
			rp.Keep(r)
		}
	}
	check := func(name string, rp *Report) {
		t.Helper()
		if rp.Total() != len(order) {
			t.Errorf("%s: total = %d, want %d (duplicates count)", name, rp.Total(), len(order))
		}
		if rp.Distinct() != 6 {
			t.Errorf("%s: distinct = %d, want 6 (keys past the limit count)", name, rp.Distinct())
		}
		var kept []mem.Addr
		for _, r := range rp.Races() {
			kept = append(kept, r.Addr)
		}
		if !reflect.DeepEqual(kept, []mem.Addr{0, 1, 2}) {
			t.Errorf("%s: kept %v, want the first 3 keys in detection order", name, kept)
		}
	}
	if !reflect.DeepEqual(admitted, []int{0, 1, 2}) {
		t.Fatalf("admitted %v, want each of the first 3 keys once", admitted)
	}
	check("report", &rp)

	// Add is Admit plus Keep.
	var viaAdd Report
	viaAdd.Limit = 3
	for _, i := range order {
		viaAdd.Add(race(i))
	}
	check("Add", &viaAdd)

	// Clone and CopyFrom preserve the counts, the kept races and the
	// dedup state: a duplicate after the copy is not admitted again, on
	// either side, and a new key counts but is not kept.
	clone := rp.Clone()
	var copied Report
	copied.Add(race(9)) // state CopyFrom must overwrite
	copied.CopyFrom(&rp)
	for name, c := range map[string]*Report{"Clone": clone, "CopyFrom": &copied} {
		check(name, c)
		if c.Admit(Determinacy, 1, "", 1, 2) {
			t.Errorf("%s: re-admitted a key seen before the copy", name)
		}
		if c.Admit(Determinacy, 7, "", 1, 2) {
			t.Errorf("%s: admitted a new key past the limit", name)
		}
		if c.Total() != len(order)+2 || c.Distinct() != 7 || len(c.Races()) != 3 {
			t.Errorf("%s: after two more reports total %d, distinct %d, kept %d",
				name, c.Total(), c.Distinct(), len(c.Races()))
		}
	}
	check("source after its copies moved on", &rp)
}

func TestReportEmptyAndSummary(t *testing.T) {
	var rp Report
	if !rp.Empty() {
		t.Fatal("fresh report must be empty")
	}
	if rp.Summary() != "no races detected" {
		t.Fatalf("summary = %q", rp.Summary())
	}
	rp.Add(Race{Kind: ViewRead, Reducer: "sum",
		First:  Access{Frame: 1, Label: "main", Op: OpReducerRead},
		Second: Access{Frame: 2, Label: "f", Op: OpReducerRead}})
	s := rp.Summary()
	if !strings.Contains(s, "view-read race") || !strings.Contains(s, `"sum"`) {
		t.Fatalf("summary missing details: %q", s)
	}
	if !rp.HasKind(ViewRead) || rp.HasKind(Determinacy) {
		t.Fatal("HasKind wrong")
	}
}

func TestStringers(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{ViewRead.String(), "view-read race"},
		{Determinacy.String(), "determinacy race"},
		{OpRead.String(), "read"},
		{OpWrite.String(), "write"},
		{OpReducerRead.String(), "reducer-read"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
	a := Access{Frame: 3, Label: "f", Op: OpWrite, ViewAware: true, VID: 7}
	if !strings.Contains(a.String(), "view-aware") {
		t.Fatalf("access string missing view-aware: %q", a)
	}
}
