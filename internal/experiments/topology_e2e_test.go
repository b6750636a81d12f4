package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// TestDeepTopologiesEndToEnd runs the built-in 3-level scenarios —
// l3-shared (private L1+L2 under a shared partitioned L3) and
// clustered-l2 (cluster-of-2 L2s) — through the full scenario pipeline,
// and proves the line-merged engine bit-identical to the word-exact
// oracle on both trees by running the same study directly under each
// engine (scenario specs normalize to the production engine): the
// FastSpec/ChargeLine/CommitRepeats contract holds against any leaf, not
// just the classic private L1.
func TestDeepTopologiesEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name string
		topo cache.Topology
	}{{ScenarioL3Shared, L3SharedTopology()}, {ScenarioClusteredL2, ClusteredL2Topology()}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Small()
			spec, ok := BuiltinScenario(cfg, c.name)
			if !ok {
				t.Fatalf("no built-in %q", c.name)
			}
			res, err := scenario.NewRunner(0).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Shared == nil || res.Partitioned == nil || res.Optimize == nil || res.Compose == nil {
				t.Fatalf("incomplete study: %+v", res)
			}
			if res.Shared.Makespan == 0 || res.Shared.TotalMisses == 0 {
				t.Fatalf("empty run summary %+v", res.Shared)
			}
			if res.Partitioned.TotalMisses >= res.Shared.TotalMisses {
				t.Errorf("partitioning did not reduce misses (%d -> %d)", res.Shared.TotalMisses, res.Partitioned.TotalMisses)
			}

			w, err := workloads.Build(spec.Workload, workloads.BuildConfig{Scale: cfg.Scale})
			if err != nil {
				t.Fatal(err)
			}
			var studies [2]*Study
			for i, eng := range []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact} {
				ec := cfg
				ec.Platform.Topology = c.topo
				ec.Platform.Engine = eng
				if studies[i], err = RunStudy(w, ec); err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
			}
			merged, word := studies[0], studies[1]
			diffResults(t, "shared", merged.Shared, word.Shared)
			diffResults(t, "partitioned", merged.Part, word.Part)
			if !reflect.DeepEqual(merged.Opt.Allocation, word.Opt.Allocation) {
				t.Errorf("allocations differ: %v vs %v", merged.Opt.Allocation, word.Opt.Allocation)
			}
			if res.Shared.Makespan != merged.Shared.Platform.Makespan || res.Partitioned.TotalMisses != merged.Part.TotalMisses() {
				t.Errorf("the scenario pipeline diverged from the direct study: makespan %d vs %d, partitioned misses %d vs %d",
					res.Shared.Makespan, merged.Shared.Platform.Makespan, res.Partitioned.TotalMisses, merged.Part.TotalMisses())
			}
		})
	}
}

// TestL3LevelPathSweepAxis drives a sweep axis over a level path of the
// 3-level tree (platform.hierarchy.l3.kb), the end-to-end check of the
// dynamic axis registry: expansion labels match the simulated geometry
// and the L2Bytes metric tracks the partition level's capacity.
func TestL3LevelPathSweepAxis(t *testing.T) {
	cfg := Small()
	lookup := func(name string) (scenario.Scenario, bool) { return BuiltinScenario(cfg, name) }
	sw, err := sweep.Parse([]byte(`{
		"name": "l3kb",
		"base": {"base": "l3-shared", "partition": "shared"},
		"axes": [{"field": "platform.hierarchy.l3.kb", "values": [512, 1024]}]
	}`), lookup)
	if err != nil {
		t.Fatal(err)
	}
	points, total, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("want 2 points, got %d", total)
	}
	for i, wantSets := range []int{2048, 4096} {
		pc, err := points[i].Scenario.Platform.Config()
		if err != nil {
			t.Fatal(err)
		}
		j := pc.Topology.Index("l3")
		if j < 0 || pc.Topology.Levels[j].Sets != wantSets {
			t.Errorf("point %d: l3 sets = %+v, want %d", i, pc.Topology.Levels, wantSets)
		}
		// The leaf levels are untouched by the axis.
		if pc.Topology.Levels[0].Sets != 64 || pc.Topology.Levels[1].Sets != 512 {
			t.Errorf("point %d: leaf levels disturbed: %+v", i, pc.Topology.Levels)
		}
	}
	res, err := sweep.Execute(context.Background(), scenario.NewRunner(0), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Executed != 2 {
		t.Fatalf("sweep failed: %+v", res.Points)
	}
	for i, wantBytes := range []int{512 << 10, 1024 << 10} {
		if res.Points[i].Metrics == nil || res.Points[i].Metrics.L2Bytes != wantBytes {
			t.Errorf("point %d: L2Bytes metric = %+v, want %d", i, res.Points[i].Metrics, wantBytes)
		}
	}
	// An axis naming a level the base topology lacks fails loudly.
	if _, err := sweep.Parse([]byte(`{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "platform.hierarchy.l9.kb", "values": [512]}]
	}`), lookup); err == nil || !strings.Contains(err.Error(), `no level "l9"`) {
		t.Errorf("unknown level axis must fail naming the level, got %v", err)
	}
}

// TestProfileLevelSelectsNamedSharedLevel checks the profiler tap moves
// to any named shared level: profiling the l3-shared tree at "l3" (its
// partition level, explicitly named) matches the default tap, and the
// memo keys distinguish the level.
func TestProfileLevelSelectsNamedSharedLevel(t *testing.T) {
	cfg := Small()
	spec, _ := BuiltinScenario(cfg, ScenarioL3Shared)
	spec.Partition = scenario.PartitionProfile

	named := spec
	named.ProfileLevel = "l3"

	rn := scenario.NewRunner(0)
	def, err := rn.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := rn.Run(named)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(def.Curves)
	b, _ := json.Marshal(nm.Curves)
	if string(a) != string(b) {
		t.Error("explicitly naming the partition level must profile identical curves")
	}
	if len(def.Curves) == 0 {
		t.Fatal("no curves profiled")
	}
}
