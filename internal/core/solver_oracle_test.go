package core_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// TestOptimizeILPAgreesWithMCKPOnRealCurves checks the ILP oracle
// against the production MCKP solver on the applications' real
// small-scale miss curves at seeds 0-2: both must reach the same total
// expected cost, and each allocation must fit the budget. The
// allocations themselves may differ — the solvers promise equal cost,
// not equal choices among ties.
func TestOptimizeILPAgreesWithMCKPOnRealCurves(t *testing.T) {
	base := core.OptimizeConfig{Platform: platform.Default(), Runs: 1}
	for _, name := range []string{"2jpeg+canny", "mpeg2"} {
		for seed := uint64(0); seed < 3; seed++ {
			w, err := workloads.Build(name, workloads.BuildConfig{Scale: workloads.Small, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			curves, err := core.Profile(w, base)
			if err != nil {
				t.Fatal(err)
			}
			var costs [2]float64
			for i, solver := range []core.Solver{core.SolverMCKP, core.SolverILP} {
				app, err := w.Factory()
				if err != nil {
					t.Fatal(err)
				}
				oc := base
				oc.Solver = solver
				opt, err := core.OptimizeFromCurves(app, curves, oc)
				if err != nil {
					t.Fatalf("%s seed %d, %v: %v", name, seed, solver, err)
				}
				// Budget counts the units left after the pinned FIFOs.
				units := 0
				for _, e := range app.Entities() {
					if e.Pinned == 0 {
						units += opt.Allocation[e.Name]
					}
				}
				if units > opt.Budget {
					t.Errorf("%s seed %d, %v: %d units allocated over a budget of %d", name, seed, solver, units, opt.Budget)
				}
				costs[i] = totalCost(opt.Expected)
			}
			if math.Abs(costs[0]-costs[1]) > 1e-6 {
				t.Errorf("%s seed %d: mckp cost %.6f, ilp cost %.6f", name, seed, costs[0], costs[1])
			}
		}
	}
}

// totalCost sums expected misses in name order, so the sum does not
// depend on map iteration.
func totalCost(expected map[string]float64) float64 {
	names := make([]string, 0, len(expected))
	for n := range expected {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum float64
	for _, n := range names {
		sum += expected[n]
	}
	return sum
}
