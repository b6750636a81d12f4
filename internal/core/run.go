package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/platform"
)

// Strategy selects the cache organization of a run.
type Strategy uint8

// Strategies of the evaluation: the conventional shared L2 (baseline) and
// the exclusively partitioned L2 (the paper's method).
const (
	Shared Strategy = iota
	Partitioned
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Shared {
		return "shared"
	}
	return "partitioned"
}

// The run-time system's fixed partition, in allocation units: a
// partitioned run installs it and the solver's budget excludes it.
const rtUnits = 4

// maxCycles is the runaway guard of every simulation.
const maxCycles = 20_000_000_000

// RunConfig parameterizes one application execution.
type RunConfig struct {
	Platform platform.Config
	Strategy Strategy
	Alloc    Allocation // required for Partitioned

	// L2Observer, when non-nil, taps the access stream bound for the
	// observed shared level (the profiler attaches here).
	L2Observer func(lineAddr uint64, write bool, region mem.RegionID)
	// ObserveLevel names the shared topology level L2Observer taps; the
	// empty string selects the partition level (the classic L2).
	ObserveLevel string
}

// Result is the outcome of one application execution.
type Result struct {
	App      string
	Strategy Strategy
	Platform *platform.RunResult
	Entities []EntityResult

	L2MissRate float64
	CPIMean    float64
	Energy     float64

	// TaskCycles holds each task's execution+stall cycles, the measured
	// T_i of the throughput model.
	TaskCycles map[string]uint64
	// TaskCPU records the static assignment used.
	TaskCPU map[string]int
}

// TotalMisses sums entity misses (equals the L2 misses attributable to
// application entities; OS traffic outside rt sections is negligible).
func (r *Result) TotalMisses() uint64 {
	var t uint64
	for _, e := range r.Entities {
		t += e.Misses
	}
	return t
}

// Entity returns the named entity result, or nil.
func (r *Result) Entity(name string) *EntityResult {
	for i := range r.Entities {
		if r.Entities[i].Name == name {
			return &r.Entities[i]
		}
	}
	return nil
}

// PowerModel is the paper's section 3.1 cost: consumed power depends on
// the time and the memory traffic needed to complete all tasks. Energy =
// CycleCost·busy-cycles + L2Cost·L2-accesses + MemCost·line-transfers,
// in arbitrary energy units.
type PowerModel struct {
	CycleCost float64
	L2Cost    float64
	MemCost   float64
}

// DefaultPowerModel weights off-chip transfers an order of magnitude above
// L2 accesses, which in turn dominate core cycles — the usual embedded
// memory-energy hierarchy.
func DefaultPowerModel() PowerModel {
	return PowerModel{CycleCost: 1, L2Cost: 6, MemCost: 60}
}

// Run builds a fresh App from the workload and executes it under the
// given configuration.
func Run(w Workload, rc RunConfig) (*Result, error) {
	app, err := w.Factory()
	if err != nil {
		return nil, fmt.Errorf("core: building %q: %w", w.Name, err)
	}
	return RunApp(app, rc)
}

// RunApp executes an already-built App (which must not have run before).
func RunApp(app *App, rc RunConfig) (*Result, error) {
	pl, err := platform.New(rc.Platform, app.AS, app.RTData, app.RTBSS)
	if err != nil {
		return nil, err
	}
	for _, t := range app.Tasks {
		cpuIdx := t.CPU
		if cpuIdx >= rc.Platform.NumCPUs {
			cpuIdx = cpuIdx % rc.Platform.NumCPUs
		}
		if err := pl.AddTask(t.Proc, cpuIdx); err != nil {
			return nil, err
		}
	}
	var al Allocation
	if rc.Strategy == Partitioned {
		if rc.Alloc == nil {
			return nil, fmt.Errorf("core: partitioned run of %q without allocation", app.Name)
		}
		al = rc.Alloc
		ca, err := app.BuildCacheAllocation(rc.Platform.PartitionGeom().Sets, rtUnits, al)
		if err != nil {
			return nil, err
		}
		pl.InstallAllocation(ca)
	}
	if rc.L2Observer != nil {
		obs, err := pl.SharedCache(rc.ObserveLevel)
		if err != nil {
			return nil, fmt.Errorf("core: observing %q: %w", rc.ObserveLevel, err)
		}
		obs.Observer = rc.L2Observer
	}
	pres, err := pl.Run(maxCycles)
	if err != nil {
		return nil, fmt.Errorf("core: running %q (%v): %w", app.Name, rc.Strategy, err)
	}
	res := &Result{
		App:        app.Name,
		Strategy:   rc.Strategy,
		Platform:   pres,
		Entities:   app.AggregateEntities(pl.L2(), al),
		TaskCycles: make(map[string]uint64, len(app.Tasks)),
		TaskCPU:    make(map[string]int, len(app.Tasks)),
	}
	for _, t := range app.Tasks {
		res.TaskCycles[t.Proc.Name] = t.Proc.ConsumedCycles()
		res.TaskCPU[t.Proc.Name] = t.CPU % rc.Platform.NumCPUs
	}
	res.L2MissRate = pres.L2.MissRate()
	res.CPIMean = pres.CPIMean()

	var busy uint64
	for _, c := range pl.Cores() {
		busy += c.BusyCycles()
	}
	power := DefaultPowerModel()
	res.Energy = power.CycleCost*float64(busy) +
		power.L2Cost*float64(pres.L2.Accesses) +
		power.MemCost*float64(pl.Bus().Traffic())
	// Every result is now copied out of the platform (entities, task
	// cycles, stats, energy inputs), so its arena can be recycled for
	// the next simulation. Error paths above deliberately skip this:
	// killed task goroutines may still reference arena memory.
	pl.Release()
	return res, nil
}
