package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/rader"
	"repro/internal/report"
)

// writeVerdict prints a verdict document as text: the one human-readable
// rendering of every surface, local -prog, -replay, -coverage and -live
// runs and -remote analyses and sweeps alike. It reads only the document,
// so a verdict reads the same wherever it was computed. Each surface
// prints its own header lines before it and the local replay hint after.
func writeVerdict(w io.Writer, doc any) {
	switch d := doc.(type) {
	case *report.Multi:
		for _, rep := range d.Reports {
			fmt.Fprintf(w, "%s: ", rep.Detector)
			writeReport(w, rep)
		}
	case *report.Report:
		writeReport(w, d)
	case *report.Sweep:
		writeSweep(w, d)
	}
}

func writeReport(w io.Writer, r *report.Report) {
	switch {
	case r.Detector == string(rader.None) || r.Detector == string(rader.EmptyTool):
		if r.Events > 0 {
			fmt.Fprintln(w, "(no detector attached: stream validated)")
		} else {
			fmt.Fprintln(w, "(no detector attached)")
		}
	case r.Clean:
		fmt.Fprintln(w, "no races detected")
	default:
		fmt.Fprintf(w, "%d distinct race(s), %d report(s) total:\n", r.Distinct, r.Total)
		writeRaces(w, r.Races)
	}
	if p := r.Parallel; p != nil {
		fmt.Fprintf(w, "parallel: workers=%d shard-merges=%d accesses=%d fast-path=%.2f\n",
			p.Workers, p.ShardMerges, p.Accesses, p.FastPathRate)
	}
}

func writeSweep(w io.Writer, s *report.Sweep) {
	fmt.Fprintf(w, "profile: max P-depth %d, max sync block %d, Cilk depth %d\n",
		s.Profile.MaxPDepth, s.Profile.MaxSyncBlock, s.Profile.CilkDepth)
	fmt.Fprintf(w, "specifications run: %d (SP+), plus one Peer-Set pass\n", s.SpecsRun)
	if s.Stats.Sampled {
		fmt.Fprintf(w, "sampled: %s\n", s.Stats.Confidence)
	}
	if len(s.ViewReads) == 0 {
		fmt.Fprintln(w, "view-read: no races detected")
	} else {
		fmt.Fprintf(w, "view-read: %d distinct race(s):\n", len(s.ViewReads))
		writeRaces(w, s.ViewReads)
	}
	if len(s.Races) == 0 {
		fmt.Fprintln(w, "determinacy: no races under any specification")
	} else {
		// rader.Sweep already sorts the findings by specification.
		fmt.Fprintf(w, "determinacy: %d distinct race(s):\n", len(s.Races))
		for _, f := range s.Races {
			fmt.Fprintf(w, "  [%s] %s\n", f.Spec, f.Race)
		}
	}
	for _, f := range s.Failures {
		fmt.Fprintf(w, "sweep failure: [%s] %s\n", f.Spec, f.Error)
	}
}

// writeRaces prints one indented line per race, sorted.
func writeRaces(w io.Writer, races []report.Race) {
	lines := make([]string, len(races))
	for i, r := range races {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
}
