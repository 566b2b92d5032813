package corpus

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

// Program is one named program: a figure of the paper, a catalogue entry,
// a bridged program or a benchmark at one scale. rader -prog and -live,
// raderd's ?prog= and stealgen all resolve names through Lookup, so a name
// means the same program on every surface.
type Program struct {
	Desc string
	// Build returns a fresh instance per call (sweeps run hundreds), with
	// identical address layouts across instances so findings are
	// comparable. Only the benchmarks set Verify and InputDesc.
	Build func() *apps.Instance
	// Bridged is set only for the bridged programs: it builds the same
	// program as Build, over a fresh allocator, as a progs.BCtx body that
	// also runs live on the work-stealing runtime (rader -live).
	Bridged func() func(progs.BCtx)
}

// bridged are the programs written against progs.BCtx: dedup- and
// ferret-class kernels after the paper's benchmark suite (minus the
// hyperobjects; live depa detection covers determinacy races), a racy
// variant of each, and the stress program of depa's shard-scaling
// benchmark.
var bridged = []struct {
	name, desc string
	build      func(al *mem.Allocator) func(progs.BCtx)
}{
	{"dedup-kernel", "content-chunk fingerprinting, per-chunk output slots (clean)",
		func(al *mem.Allocator) func(progs.BCtx) { return progs.DedupWorkload(al, 64, false) }},
	{"dedup-kernel-racy", "dedup-kernel with a shared duplicate-counter touched by every chunk",
		func(al *mem.Allocator) func(progs.BCtx) { return progs.DedupWorkload(al, 64, true) }},
	{"ferret-kernel", "similarity-search pipeline, per-query top-K slots (clean)",
		func(al *mem.Allocator) func(progs.BCtx) { return progs.FerretWorkload(al, 16, 8, false) }},
	{"ferret-kernel-racy", "ferret-kernel with a shared global-best cell written by every query",
		func(al *mem.Allocator) func(progs.BCtx) { return progs.FerretWorkload(al, 16, 8, true) }},
	{"stress", "deep spawn tree with hot per-leaf access loops (the shard-scaling workload)",
		func(al *mem.Allocator) func(progs.BCtx) { return progs.StressWorkload(al, 256, 64) }},
}

// LiveNames returns the names of the bridged programs, the ones whose
// Program has a Bridged body, in catalogue order.
func LiveNames() []string {
	names := make([]string, len(bridged))
	for i, b := range bridged {
		names[i] = b.name
	}
	return names
}

// Factory builds a fresh instance and returns its program: the factory
// rader.Sweep takes.
func (p Program) Factory() func(*cilk.Ctx) { return p.Build().Prog }

// Lookup returns the program name denotes and its identity string. Names
// resolve to the figures first, then the catalogue entries, then the
// bridged programs, then the six benchmarks at scale (parsed by
// apps.ParseScale; the other programs ignore it). The identity names everything that changes the program's
// behaviour, a benchmark's scale included; raderd hashes it into cache
// keys, store keys and its sweep journal, so an identity never changes.
func Lookup(name, scale string) (Program, string, error) {
	switch name {
	case "fig1":
		return fig1("Figure 1: shallow-copy list race", progs.Fig1Options{}), "program\x00fig1", nil
	case "fig1-early":
		return fig1("Figure 1 with get_value before sync", progs.Fig1Options{EarlyGetValue: true}), "program\x00fig1-early", nil
	case "fig1-late":
		return fig1("Figure 1 with set_value after spawn", progs.Fig1Options{SetValueAfterSpawn: true}), "program\x00fig1-late", nil
	case "fig1-fixed":
		return fig1("Figure 1 with a deep copy (race-free)", progs.Fig1Options{DeepCopy: true}), "program\x00fig1-fixed", nil
	case "fig2":
		return Fig2(1, 9), "program\x00fig2", nil
	}
	for _, e := range All() {
		if e.Name == name {
			build := e.Build
			return Program{
				Desc:  e.Desc,
				Build: func() *apps.Instance { return &apps.Instance{Prog: build(mem.NewAllocator())} },
			}, "program\x00corpus\x00" + name, nil
		}
	}
	for _, b := range bridged {
		if b.name == name {
			build := b.build
			return Program{
				Desc:    b.desc,
				Build:   func() *apps.Instance { return &apps.Instance{Prog: progs.CilkProg(build(mem.NewAllocator()))} },
				Bridged: func() func(progs.BCtx) { return build(mem.NewAllocator()) },
			}, "program\x00bridged\x00" + name, nil
		}
	}
	app, err := apps.ByName(name)
	if err != nil {
		var names []string
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
		return Program{}, "", fmt.Errorf("unknown program %q (figures, corpus entries, bridged programs %v, or benchmarks %v)", name, LiveNames(), names)
	}
	sc, err := apps.ParseScale(scale)
	if err != nil {
		return Program{}, "", err
	}
	return Program{
		Desc:  app.Desc,
		Build: func() *apps.Instance { return app.Build(mem.NewAllocator(), sc) },
	}, fmt.Sprintf("program\x00app\x00%s\x00%s", name, sc), nil
}

// Fig2 is Figure 2's dag with reducer reads at the given strands; the
// program named fig2 reads at strands 1 and 9.
func Fig2(reads ...int) Program {
	return Program{
		Desc:  fmt.Sprintf("Figure 2 dag with reducer reads at strands %v", reads),
		Build: func() *apps.Instance { return &apps.Instance{Prog: progs.Fig2Reads(reads...)} },
	}
}

func fig1(desc string, opts progs.Fig1Options) Program {
	return Program{
		Desc:  desc,
		Build: func() *apps.Instance { return &apps.Instance{Prog: progs.Fig1(mem.NewAllocator(), opts)} },
	}
}
