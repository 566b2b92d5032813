package spplus

import (
	"repro/internal/cilk"
	"repro/internal/core"
)

// SPBags is the Feng–Leiserson SP-bags algorithm, the serial
// determinacy-race detector that SP+ extends: SP+ with both extensions
// left out. It ignores steals, reduces and view-aware sections, so each
// function keeps a single P bag, every view ID is 0 and every access
// takes the view-oblivious rules. One reader per location suffices by the
// pseudotransitivity of ‖.
//
// SP-bags has no notion of reducer views. On programs that use reducers
// it loses the paper's guarantees: it reports races between strands that
// share a view (TestFig5SPBagsFalsePositive). It is the baseline the
// evaluation compares against and the serial reference depa must match.
type SPBags struct{ Detector }

// NewSPBags returns a fresh SP-bags detector.
func NewSPBags() *SPBags {
	d := &SPBags{Detector: *New()}
	d.layer = "sp-bags"
	return d
}

// Name implements core.Detector.
func (d *SPBags) Name() string { return "sp-bags" }

// ContinuationStolen implements cilk.Hooks: no steal pushes a P bag.
func (d *SPBags) ContinuationStolen(*cilk.Frame, cilk.ViewID) {}

// ReduceStart implements cilk.Hooks: with one P bag there is nothing to
// reduce.
func (d *SPBags) ReduceStart(*cilk.Frame, cilk.ViewID, cilk.ViewID) {}

// ReduceEnd implements cilk.Hooks.
func (d *SPBags) ReduceEnd(*cilk.Frame) {}

// ViewAwareBegin implements cilk.Hooks: a view-aware access is checked
// like any other.
func (d *SPBags) ViewAwareBegin(*cilk.Frame, cilk.ViewOp, *cilk.Reducer) {}

// ViewAwareEnd implements cilk.Hooks.
func (d *SPBags) ViewAwareEnd(*cilk.Frame, cilk.ViewOp, *cilk.Reducer) {}

var (
	_ core.Detector = (*SPBags)(nil)
	_ cilk.Hooks    = (*SPBags)(nil)
)
