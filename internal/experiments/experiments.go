// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5), plus the extension studies X1-X5. Each CLI
// command resolves to built-in scenarios (scenario_defs.go), runs them
// on a scenario.Runner and renders the results through the *FromResult
// adapters (adapters.go):
//
//	T1/T2  Tables 1-2: optimized L2 allocation per entity
//	F2     Figure 2: shared vs best-partitioned misses per entity
//	F3     Figure 3: expected vs simulated misses (compositionality)
//	H1     headline metrics: miss ratio, miss rate, CPI, mpeg2@1MB
//	X1     compositionality ablation: jpeg1 alone vs co-scheduled
//	X2     granularity ablation: set-partitioning vs way (column) caching
//	X3     task-to-processor assignment search on the section 3.1 model
//	X4     split instruction/data partitions (the section 4.2 variant)
//	X5     schedule sensitivity under task migration
package experiments

import (
	"repro/internal/platform"
	"repro/internal/workloads"
)

// Config parameterizes the harness.
type Config struct {
	Scale       workloads.Scale
	Platform    platform.Config
	ProfileRuns int
	// Workers bounds the scenario runner the CLI builds
	// (scenario.NewRunner): at most Workers simulations and trace
	// captures run at once, across all the runner's callers, concurrent
	// serve requests included (0 = GOMAXPROCS, 1 = one at a time). The
	// Go API's core.Profile and core.Run run outside that bound. Every
	// simulation owns its platform instance, so the results are
	// identical at any worker count.
	Workers int
}

// Default returns the paper-scale configuration: the 4-CPU, 512 KB L2
// CAKE instance of section 5.
func Default() Config {
	return Config{Scale: workloads.Paper, Platform: platform.Default(), ProfileRuns: 2}
}

// Small returns a fast configuration for tests.
func Small() Config {
	return Config{Scale: workloads.Small, Platform: platform.Default(), ProfileRuns: 1}
}

// HeadlineRow summarizes one study for the headline table. It is part
// of the machine-readable surface (`compmem headline -json` emits the
// rows in a versioned report envelope).
type HeadlineRow struct {
	App        string  `json:"app"`
	SharedMiss uint64  `json:"shared_misses"`
	PartMiss   uint64  `json:"partitioned_misses"`
	Ratio      float64 `json:"ratio"`
	SharedRate float64 `json:"shared_miss_rate"`
	PartRate   float64 `json:"partitioned_miss_rate"`
	SharedCPI  float64 `json:"shared_cpi"`
	PartCPI    float64 `json:"partitioned_cpi"`
	MaxRelDiff float64 `json:"max_rel_diff"`
	// Energy in the arbitrary units of core.PowerModel: the paper's
	// power criterion ("optimizing the overall execution time
	// (respectively the number of misses) gives the most power
	// consumptions reduction").
	SharedEnergy float64 `json:"shared_energy"`
	PartEnergy   float64 `json:"partitioned_energy"`
}

// CompositionResult is experiment X1: the same decoder's miss counts with
// and without co-runners, under both cache strategies.
type CompositionResult struct {
	SharedSolo  uint64 // jpeg1 entity misses, running alone, shared L2
	SharedCorun uint64 // ... co-scheduled with jpeg2 + canny, shared L2
	PartSolo    uint64 // ... alone, partitioned L2 (same allocation)
	PartCorun   uint64 // ... co-scheduled, partitioned L2
}

// SharedShift returns the relative change of the shared-cache miss count
// when co-runners appear; PartShift the same for the partitioned cache.
// Compositionality means PartShift ≈ 0 while SharedShift is large.
func (r *CompositionResult) SharedShift() float64 { return shift(r.SharedSolo, r.SharedCorun) }

// PartShift returns the partitioned-cache relative change.
func (r *CompositionResult) PartShift() float64 { return shift(r.PartSolo, r.PartCorun) }

func shift(solo, corun uint64) float64 {
	if solo == 0 {
		return 0
	}
	d := float64(corun) - float64(solo)
	if d < 0 {
		d = -d
	}
	return d / float64(solo)
}

// jpeg1Entities are the private entities of the first decoder instance.
var jpeg1Entities = []string{"FrontEnd1", "IDCT1", "Raster1", "BackEnd1"}
