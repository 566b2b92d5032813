// Package apps contains the six application benchmarks of the paper's
// evaluation (Figure 7), rebuilt as instrumented Cilk programs over
// synthetic workloads:
//
//	collision — collision detection in 3-D (hypervector reducer)
//	dedup     — compression program (ostream reducer; PARSEC-derived)
//	ferret    — image similarity search (ostream reducer; PARSEC-derived)
//	fib       — recursive Fibonacci (opadd reducer; synthetic stress test)
//	knapsack  — recursive knapsack (user-defined max-struct reducer)
//	pbfs      — parallel breadth-first search (bag reducer)
//
// Each app builds an Instance: a program exercising the cilk API with the
// memory accesses on its raced-on data instrumented, plus a verifier that
// recomputes the answer serially. Instances come in three scales so the
// same code serves unit tests, the rader CLI, and the Figure 7/8 harness.
package apps

import (
	"fmt"

	"repro/internal/cilk"
	"repro/internal/mem"
)

// Scale selects the input size.
type Scale int

// Scales: Test keeps unit tests fast, Small suits the CLI and examples,
// Bench approximates the paper's input sizes scaled to this interpreter.
const (
	Test Scale = iota
	Small
	Bench
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Test:
		return "test"
	case Small:
		return "small"
	case Bench:
		return "bench"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale parses a scale name: test, small or bench. The empty string
// is Test, the scale a bare raderd request gets.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "test":
		return Test, nil
	case "small":
		return Small, nil
	case "bench":
		return Bench, nil
	default:
		return 0, fmt.Errorf("bad scale %q (test, small, bench)", s)
	}
}

// Instance is one runnable benchmark configuration. Other named programs
// use it too, with no Verify or InputDesc.
type Instance struct {
	// Prog is the Cilk program. Fresh per run: call Build again to rerun
	// (programs carry mutable workload state such as distance arrays).
	Prog func(*cilk.Ctx)
	// Verify checks the program's result against a serial recomputation;
	// call after the run.
	Verify func() error
	// InputDesc describes the input, mirroring Figure 7's input column.
	InputDesc string
}

// App is one benchmark.
type App struct {
	Name string
	Desc string // Figure 7's description column
	// Build constructs a fresh instance at the given scale, registering
	// instrumented regions with al.
	Build func(al *mem.Allocator, scale Scale) *Instance
}

// All returns the six benchmarks in Figure 7's (alphabetical) order.
func All() []App {
	return []App{
		Collision(),
		Dedup(),
		Ferret(),
		Fib(),
		Knapsack(),
		PBFS(),
	}
}

// ByName looks up one benchmark.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown benchmark %q (have collision, dedup, ferret, fib, knapsack, pbfs)", name)
}
