package spplus

import (
	"reflect"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

func fig1() func(*cilk.Ctx) {
	return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{})
}

// Snapshot/Restore fidelity: a detector restored from a snapshot taken at
// continuation probe k, fed only the events after probe k, must end in
// exactly the state of a detector that processed the whole run live —
// same races, same totals, same event and accounting counters. This is
// the substrate contract the prefix-sharing sweep builds on.
func TestSnapshotRestoreResumesExactly(t *testing.T) {
	spec := cilk.StealAll{}

	// Reference: one uninterrupted live run.
	ref := New()
	cilk.Run(fig1(), cilk.Config{Spec: spec, Hooks: ref})

	for _, forkAt := range []int{1, 2, 3} {
		// Capture a snapshot at probe forkAt during a second live run.
		donor := New()
		var snap *Snapshot
		cilk.Run(fig1(), cilk.Config{
			Hooks: donor,
			Spec:  spec,
			Gate: &cilk.Gate{OnProbe: func(ci cilk.ContInfo) {
				if ci.Seq == forkAt {
					snap = donor.Snapshot()
				}
			}},
		})
		if snap == nil {
			t.Fatalf("probe %d never fired", forkAt)
		}
		// The donor kept running past the snapshot; its final report must
		// match the reference (the gate was open throughout).
		if !reflect.DeepEqual(donor.Report().Races(), ref.Report().Races()) {
			t.Fatalf("fork %d: donor diverged from reference", forkAt)
		}

		// Fork: fresh detector, restored state, suppressed prefix, live
		// suffix from probe forkAt on.
		fork := New()
		fork.Restore(snap)
		fgate := &cilk.Gate{From: forkAt}
		cilk.Run(fig1(), cilk.Config{
			Hooks: fork,
			Spec:  spec,
			Gate:  fgate,
		})
		if fgate.Withheld == 0 {
			t.Fatalf("fork %d: gate suppressed nothing; the prefix ran live", forkAt)
		}
		if !reflect.DeepEqual(fork.Report().Races(), ref.Report().Races()) {
			t.Errorf("fork %d races:\n%v\nwant:\n%v", forkAt, fork.Report().Races(), ref.Report().Races())
		}
		if fork.Report().Total() != ref.Report().Total() {
			t.Errorf("fork %d total = %d, want %d", forkAt, fork.Report().Total(), ref.Report().Total())
		}
		if fork.Events() != ref.Events() {
			t.Errorf("fork %d event counter = %d, want %d", forkAt, fork.Events(), ref.Events())
		}
		if fork.EventCounts() != ref.EventCounts() {
			t.Errorf("fork %d counts = %+v, want %+v", forkAt, fork.EventCounts(), ref.EventCounts())
		}
		if fork.Stats() != ref.Stats() {
			t.Errorf("fork %d stats = %+v, want %+v", forkAt, fork.Stats(), ref.Stats())
		}
	}
}

// One snapshot must be able to seed many forks: restoring twice and
// driving both forks to completion yields identical, independent results.
func TestSnapshotSeedsManyForks(t *testing.T) {
	spec := cilk.StealAll{}
	donor := New()
	var snap *Snapshot
	cilk.Run(fig1(), cilk.Config{
		Hooks: donor,
		Spec:  spec,
		Gate: &cilk.Gate{OnProbe: func(ci cilk.ContInfo) {
			if ci.Seq == 2 {
				snap = donor.Snapshot()
			}
		}},
	})

	var reports [][]string
	for i := 0; i < 2; i++ {
		fork := New()
		fork.Restore(snap)
		cilk.Run(fig1(), cilk.Config{
			Hooks: fork,
			Spec:  spec,
			Gate:  &cilk.Gate{From: 2},
		})
		var lines []string
		for _, r := range fork.Report().Races() {
			lines = append(lines, r.String())
		}
		reports = append(reports, lines)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("two forks of one snapshot disagree:\n%v\nvs\n%v", reports[0], reports[1])
	}
}

// Reset must return a pooled detector to its as-constructed behaviour:
// a run after Reset reports exactly what a fresh detector reports.
func TestDetectorResetReuse(t *testing.T) {
	d := New()
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: d})
	first := d.Report().Total()
	if first == 0 {
		t.Fatal("fig1 under StealAll should report races")
	}
	d.Reset()
	if d.Report().Total() != 0 {
		t.Fatal("Reset left races behind")
	}
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: d})
	if d.Report().Total() != first {
		t.Fatalf("reused detector reports %d, fresh reported %d", d.Report().Total(), first)
	}
	fresh := New()
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: fresh})
	if !reflect.DeepEqual(d.Report().Races(), fresh.Report().Races()) {
		t.Fatal("reused detector's races differ from a fresh detector's")
	}
}

// deepAfterShallow races at depth 1 right after its first continuation
// probe, then nests spawns depth levels deep, racing at every level.
func deepAfterShallow(depth int) func(*cilk.Ctx) {
	var nest func(c *cilk.Ctx, d int)
	nest = func(c *cilk.Ctx, d int) {
		if d == 0 {
			c.Store(0x10)
			return
		}
		c.Spawn("nest", func(cc *cilk.Ctx) { nest(cc, d-1) })
		c.Store(mem.Addr(0x100 + 8*d))
		c.Store(0x10)
		c.Sync()
		c.Store(mem.Addr(0x100 + 8*d))
	}
	return func(c *cilk.Ctx) {
		c.Spawn("a", func(cc *cilk.Ctx) { cc.Store(0x10) })
		c.Store(0x10)
		c.Sync()
		nest(c, depth)
	}
}

// A detector that has run deep keeps frame records parked past its stack
// top. Restoring a shallow snapshot into that same detector replaces its
// bag table, so the parked records' bag indices must not survive: the
// resumed run's verdict must equal a fresh detector's.
func TestRestoreShallowIntoDeepDetector(t *testing.T) {
	const depth = 12
	for _, spec := range []cilk.StealSpec{nil, cilk.StealAll{}} {
		ref := New()
		cilk.Run(deepAfterShallow(depth), cilk.Config{Spec: spec, Hooks: ref})
		if ref.Report().Total() == 0 {
			t.Fatal("the program must race")
		}

		d := New()
		var snap *Snapshot
		cilk.Run(deepAfterShallow(depth), cilk.Config{
			Hooks: d,
			Spec:  spec,
			Gate: &cilk.Gate{OnProbe: func(ci cilk.ContInfo) {
				if ci.Seq == 1 {
					snap = d.Snapshot()
				}
			}},
		})
		if snap == nil {
			t.Fatal("probe 1 never fired")
		}
		d.Restore(snap)
		cilk.Run(deepAfterShallow(depth), cilk.Config{Hooks: d, Spec: spec, Gate: &cilk.Gate{From: 1}})
		if !reflect.DeepEqual(d.Report().Races(), ref.Report().Races()) {
			t.Errorf("spec %v: resumed races:\n%v\nwant:\n%v", spec, d.Report().Races(), ref.Report().Races())
		}
		if d.Report().Total() != ref.Report().Total() || d.Stats() != ref.Stats() {
			t.Errorf("spec %v: resumed total %d, stats %+v; want %d, %+v",
				spec, d.Report().Total(), d.Stats(), ref.Report().Total(), ref.Stats())
		}
	}
}
