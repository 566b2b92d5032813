package rader

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/peerset"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/spplus"
)

// SweepReference is the per-specification §7 sweep that Sweep must agree
// with: profile the program, select the (possibly sampled) family, run SP+
// once per specification, serially in family order, and merge the
// verdicts. The schedule-independent Peer-Set pass rides along the first
// specification's run. It has no prefix sharing, workers, progress,
// spans, deadline or fault seam; it exists to be obviously correct, for
// the equivalence tests and the sweep-throughput table to compare Sweep
// against. budget bounds each run's event stream (0 = unlimited); sample
// selects the family subset as SweepOptions.SampleSpecs does.
func SweepReference(factory func() func(*cilk.Ctx), budget int64, sample int) *CoverageResult {
	cr := &CoverageResult{ViewReads: &core.Report{}}
	profile, probes, err := measureProbes(factory)
	if err != nil {
		cr.Failures = append(cr.Failures, SpecFailure{Spec: "profile", Err: err})
		return cr
	}
	cr.Profile = profile
	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, sample, 0)
	applySampleStats(&cr.Stats, fam.Len(), len(sel))

	seen := make(map[string]bool)
	for i, idx := range sel {
		spec := fam.At(idx)
		name := sched.Format(spec)
		var out *Outcome
		if i == 0 {
			out, err = run(factory(), []core.Detector{peerset.New(), spplus.New()}, Config{Spec: spec, EventBudget: budget})
		} else {
			out, err = Run(factory(), Config{Detector: SPPlus, Spec: spec, EventBudget: budget})
		}
		if err != nil {
			if i == 0 {
				cr.Failures = append(cr.Failures, SpecFailure{Spec: "peer-set", Err: err})
			}
			cr.Failures = append(cr.Failures, SpecFailure{Spec: name, Err: err})
			continue
		}
		rep := out.Report
		if i == 0 {
			cr.ViewReads, rep = out.Detectors[0].Report(), out.Detectors[1].Report()
		}
		cr.SpecsRun++
		cr.total += rep.Total()
		for _, race := range rep.Races() {
			if key := race.String(); !seen[key] {
				seen[key] = true
				cr.Races = append(cr.Races, CoverageFinding{Spec: name, Race: race})
			}
		}
	}
	cr.sortCanonical()
	return cr
}
