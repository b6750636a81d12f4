package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// directStudy is one application study computed on core directly:
// shared baseline, profile + optimize, partitioned run, and the Figure 3
// comparison. The scenario runner normalizes every spec to the
// production engines, so this is how the differential tests reach the
// word-exact oracle (through platform.Config.Engine).
type directStudy struct {
	Shared, Part *core.Result
	Opt          *core.OptimizeResult
	Compose      *core.ComposeReport
}

func runDirect(w core.Workload, cfg Config) (*directStudy, error) {
	shared, err := core.Run(w, core.RunConfig{Platform: cfg.Platform})
	if err != nil {
		return nil, err
	}
	opt, err := core.Optimize(w, cfg.OptimizeConfig())
	if err != nil {
		return nil, err
	}
	part, err := core.Run(w, core.RunConfig{Platform: cfg.Platform, Strategy: core.Partitioned, Alloc: opt.Allocation})
	if err != nil {
		return nil, err
	}
	return &directStudy{shared, part, opt, core.CompareExpectedSimulated(opt.Expected, part)}, nil
}

// diffResults fails the test if two Results differ in any observable:
// aggregate L2 statistics, per-entity accesses and misses, makespan,
// instruction count, CPI, switches, bus traffic, energy and per-task
// cycles.
func diffResults(t *testing.T, label string, merged, word *core.Result) {
	t.Helper()
	if merged.Platform.Makespan != word.Platform.Makespan {
		t.Errorf("%s: makespan %d (merged) vs %d (word)", label, merged.Platform.Makespan, word.Platform.Makespan)
	}
	if merged.Platform.TotalInstrs != word.Platform.TotalInstrs {
		t.Errorf("%s: instrs %d vs %d", label, merged.Platform.TotalInstrs, word.Platform.TotalInstrs)
	}
	if merged.Platform.L2 != word.Platform.L2 {
		t.Errorf("%s: L2 stats %+v vs %+v", label, merged.Platform.L2, word.Platform.L2)
	}
	if merged.Platform.BusStats != word.Platform.BusStats {
		t.Errorf("%s: bus stats %+v vs %+v", label, merged.Platform.BusStats, word.Platform.BusStats)
	}
	if merged.Platform.Switches != word.Platform.Switches {
		t.Errorf("%s: switches %d vs %d", label, merged.Platform.Switches, word.Platform.Switches)
	}
	if !reflect.DeepEqual(merged.Platform.CPIs, word.Platform.CPIs) {
		t.Errorf("%s: CPIs %v vs %v", label, merged.Platform.CPIs, word.Platform.CPIs)
	}
	if !reflect.DeepEqual(merged.Entities, word.Entities) {
		t.Errorf("%s: entity results differ:\nmerged: %+v\nword:   %+v", label, merged.Entities, word.Entities)
	}
	if merged.L2MissRate != word.L2MissRate || merged.CPIMean != word.CPIMean {
		t.Errorf("%s: rate/CPI %v/%v vs %v/%v", label, merged.L2MissRate, merged.CPIMean, word.L2MissRate, word.CPIMean)
	}
	if merged.Energy != word.Energy {
		t.Errorf("%s: energy %v vs %v", label, merged.Energy, word.Energy)
	}
	if !reflect.DeepEqual(merged.TaskCycles, word.TaskCycles) {
		t.Errorf("%s: task cycles %v vs %v", label, merged.TaskCycles, word.TaskCycles)
	}
}

// TestEngineDifferentialStudies is the acceptance oracle of the
// line-merged fast path on the real workloads: for Small-scale JPEGCanny
// and MPEG-2, the full study — shared baseline, profiled miss curves,
// optimized allocation, partitioned run, compositionality comparison —
// must be bit-identical under both execution engines (run under -race
// in CI).
func TestEngineDifferentialStudies(t *testing.T) {
	for _, w := range []core.Workload{
		workloads.JPEGCanny(workloads.Small, nil),
		workloads.MPEG2(workloads.Small, nil),
	} {
		t.Run(w.Name, func(t *testing.T) {
			cfg := Small()
			cfg.Platform.Engine = platform.EngineLineMerged
			merged, err := runDirect(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Platform.Engine = platform.EngineWordExact
			word, err := runDirect(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, "shared", merged.Shared, word.Shared)
			diffResults(t, "partitioned", merged.Part, word.Part)
			if !reflect.DeepEqual(merged.Opt.Allocation, word.Opt.Allocation) {
				t.Errorf("allocations differ: %v vs %v", merged.Opt.Allocation, word.Opt.Allocation)
			}
			if !reflect.DeepEqual(merged.Opt.Expected, word.Opt.Expected) {
				t.Errorf("expected misses differ: %v vs %v", merged.Opt.Expected, word.Opt.Expected)
			}
			if merged.Compose.MaxRelDiff != word.Compose.MaxRelDiff {
				t.Errorf("compositionality %v vs %v", merged.Compose.MaxRelDiff, word.Compose.MaxRelDiff)
			}
		})
	}
}
