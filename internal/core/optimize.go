package core

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/ilp"
	"repro/internal/mckp"
	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/rtos"
)

// Solver selects the optimization engine for the section 3.2 program.
type Solver uint8

// Available solvers: the exact multiple-choice-knapsack DP (production)
// and the LP-based branch-and-bound ILP (the paper's literal
// formulation); both return the same optimum.
const (
	SolverMCKP Solver = iota
	SolverILP
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	if s == SolverILP {
		return "ilp"
	}
	return "mckp"
}

// ParseSolver resolves the spec spelling of a solver.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "mckp", "":
		return SolverMCKP, nil
	case "ilp":
		return SolverILP, nil
	}
	return 0, fmt.Errorf("core: unknown solver %q (want mckp or ilp)", s)
}

// OptimizeConfig parameterizes profiling and optimization.
type OptimizeConfig struct {
	Platform platform.Config
	Sizes    []int // candidate unit sizes; nil = {1,2,...,128}
	Runs     int   // profiling repetitions for m̄ averaging; 0 = 3
	Solver   Solver
	// Engine selects the miss-curve measurement engine; the zero value
	// is the single-pass stack-distance simulator, profile.EngineBank
	// the bank-of-caches reference oracle.
	Engine profile.Engine
	// Workers bounds the concurrency of the profiling repetitions;
	// 0 = GOMAXPROCS, 1 = sequential.
	Workers int
	// ProfileLevel names the shared topology level whose miss curves are
	// profiled; the empty string selects the partition level. The
	// allocation budget always comes from the partition level — this
	// knob only moves the measurement tap.
	ProfileLevel string
}

// profileGeom resolves the geometry of the profiled shared level.
func (oc OptimizeConfig) profileGeom() (cache.Config, error) {
	t := oc.Platform.Topology
	if oc.ProfileLevel == "" {
		return oc.Platform.PartitionGeom(), nil
	}
	i := t.Index(oc.ProfileLevel)
	if i < 0 {
		return cache.Config{}, fmt.Errorf("core: profile level %q not in topology (levels: %v)", oc.ProfileLevel, t.LevelNames())
	}
	l := t.Levels[i]
	if l.Scope != cache.ScopeShared {
		return cache.Config{}, fmt.Errorf("core: profile level %q is %s, not shared", oc.ProfileLevel, l.Scope)
	}
	return l.Config(), nil
}

func (oc *OptimizeConfig) fillDefaults() {
	if oc.Sizes == nil {
		oc.Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if oc.Runs == 0 {
		oc.Runs = 3
	}
}

// OptimizeResult carries the chosen allocation and everything needed to
// reproduce Tables 1-2 and Figure 3.
type OptimizeResult struct {
	Allocation Allocation
	// Expected holds m̄_i at the chosen allocation per entity — the
	// model prediction that Figure 3 compares against simulation.
	Expected map[string]float64
	Budget   int // optimizable units after rt and pinned FIFOs
}

// jitter scales the scheduling quantum of each profiling repetition,
// cycling past its end; repetition 0 runs at the configured quantum.
var jitter = [...]float64{1.0, 0.85, 1.2, 0.7, 1.4, 0.95, 1.1}

// MaxProfileRuns is the number of distinct profiling repetitions, one per
// jittered quantum: repetition MaxProfileRuns runs at repetition 0's
// quantum and repeats it bit for bit, so more runs only re-weight the
// average.
const MaxProfileRuns = len(jitter)

// Profile runs the workload oc.Runs times under the shared-cache strategy
// with the profiler tapping the L2, and returns the averaged miss curves.
// Scheduling quanta are jittered across runs to perturb task
// interleavings, which is what makes averaging meaningful for the shared
// sections (task-private streams are identical across runs by Kahn
// determinism).
//
// The repetitions are independent simulations — each builds its own app
// and owns its platform and profiler — so they fan out over a bounded
// worker pool (oc.Workers), and w.Factory must allow concurrent calls.
// Runs are averaged in repetition order, so the result is identical to
// the sequential path. oc.Runs is at most MaxProfileRuns.
func Profile(w Workload, oc OptimizeConfig) ([]profile.Curve, error) {
	oc.fillDefaults()
	if oc.Runs < 1 || oc.Runs > MaxProfileRuns {
		return nil, fmt.Errorf("core: %d profiling runs, want 1 to MaxProfileRuns (%d)", oc.Runs, MaxProfileRuns)
	}
	runs := make([][]profile.Curve, oc.Runs)
	err := parallel.Do(parallel.Workers(oc.Workers), oc.Runs, func(r int) error {
		app, err := w.Factory()
		if err != nil {
			return err
		}
		_, runs[r], err = ProfileRep(app, oc, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return profile.Average(runs)
}

// ProfileRep runs profiling repetition rep of app (which must not have
// run before): one shared-cache simulation at the repetition's jittered
// scheduling quantum, with a profiler tapping the observed level. It
// returns the run's result and the profiler's miss curves. Repetition 0
// runs at the configured quantum, so its result is the shared baseline
// RunApp measures under the same platform without the profiler.
func ProfileRep(app *App, oc OptimizeConfig, rep int) (*Result, []profile.Curve, error) {
	oc.fillDefaults()
	entities := app.Entities()
	names := make([]string, len(entities))
	regionOf := make(map[mem.RegionID]int)
	for i, e := range entities {
		names[i] = e.Name
		for _, r := range e.Regions {
			regionOf[r] = i
		}
	}
	geom, err := oc.profileGeom()
	if err != nil {
		return nil, nil, err
	}
	prof, err := profile.New(profile.Config{
		Sizes:    oc.Sizes,
		UnitSets: rtos.AllocUnit,
		Ways:     geom.Ways,
		LineSize: geom.LineSize,
		Engine:   oc.Engine,
	}, names, regionOf)
	if err != nil {
		return nil, nil, err
	}
	rc := RunConfig{
		Platform:     oc.Platform,
		Strategy:     Shared,
		L2Observer:   prof.Observe,
		ObserveLevel: oc.ProfileLevel,
	}
	rc.Platform.Sched.Quantum = int64(float64(oc.Platform.Sched.Quantum) * jitter[rep%len(jitter)])
	res, err := RunApp(app, rc)
	if err != nil {
		return nil, nil, fmt.Errorf("core: profiling run %d: %w", rep, err)
	}
	return res, prof.Curves(), nil
}

// Optimize implements the proposed optimization method of section 3.2:
// profile per-entity miss curves, pin every FIFO to its own size, then
// choose the remaining entities' cache sizes so the expected total number
// of misses is minimal within the available capacity.
func Optimize(w Workload, oc OptimizeConfig) (*OptimizeResult, error) {
	oc.fillDefaults()
	curves, err := Profile(w, oc)
	if err != nil {
		return nil, err
	}
	app, err := w.Factory()
	if err != nil {
		return nil, err
	}
	return OptimizeFromCurves(app, curves, oc)
}

// OptimizeFromCurves runs only the solver stage, for callers that already
// profiled (the experiment harness reuses one profile across solvers).
func OptimizeFromCurves(app *App, curves []profile.Curve, oc OptimizeConfig) (*OptimizeResult, error) {
	oc.fillDefaults()
	entities := app.Entities()
	totalUnits := oc.Platform.PartitionGeom().Sets / rtos.AllocUnit
	budget := totalUnits - rtUnits

	alloc := make(Allocation)
	expected := make(map[string]float64)
	var items []mckp.Item
	var itemEnt []*Entity
	for i := range entities {
		e := &entities[i]
		curve := profile.CurveByEntity(curves, e.Name)
		if curve == nil {
			return nil, fmt.Errorf("core: no curve for entity %q", e.Name)
		}
		if e.Pinned > 0 {
			// FIFOs: cache of the same size as the buffer, so all
			// non-cold accesses hit (paper, section 4.1).
			units := ceilPow2(e.Pinned)
			alloc[e.Name] = units
			expected[e.Name] = curve.At(units)
			budget -= units
			continue
		}
		// Candidates come from oc.Sizes (so a caller can restrict the
		// granularity, e.g. to whole ways) with costs read off the
		// profiled curve, capped at the entity's own footprint: beyond
		// it the curve is flat and larger partitions waste capacity.
		capUnits := ceilPow2(PinnedUnits(e.Bytes))
		item := mckp.Item{Name: e.Name}
		sizes := append([]int(nil), oc.Sizes...)
		sort.Ints(sizes)
		for _, s := range sizes {
			if s > capUnits && len(item.Choices) > 0 {
				break
			}
			item.Choices = append(item.Choices, mckp.Choice{Weight: s, Cost: curve.At(s)})
		}
		items = append(items, item)
		itemEnt = append(itemEnt, e)
	}
	if budget < 0 {
		return nil, fmt.Errorf("core: FIFO pinning alone over-commits the cache by %d units", -budget)
	}

	pick := make([]int, len(items))
	switch oc.Solver {
	case SolverMCKP:
		sol, err := mckp.Solve(items, budget)
		if err != nil {
			return nil, fmt.Errorf("core: mckp: %w", err)
		}
		copy(pick, sol.Pick)
	case SolverILP:
		groups := make([][]ilp.Alternative, len(items))
		for i, it := range items {
			for _, c := range it.Choices {
				groups[i] = append(groups[i], ilp.Alternative{Weight: c.Weight, Cost: c.Cost})
			}
		}
		prob, index := ilp.PartitioningProblem(groups, budget)
		sol, err := ilp.Solve(prob)
		if err != nil {
			return nil, fmt.Errorf("core: ilp: %w", err)
		}
		for i, g := range groups {
			for p := range g {
				if sol.X[index(i, p)] == 1 {
					pick[i] = p
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown solver %v", oc.Solver)
	}
	for i, it := range items {
		ch := it.Choices[pick[i]]
		alloc[itemEnt[i].Name] = ch.Weight
		expected[itemEnt[i].Name] = ch.Cost
	}
	return &OptimizeResult{
		Allocation: alloc,
		Expected:   expected,
		Budget:     budget,
	}, nil
}

// ceilPow2 rounds n up to a power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
