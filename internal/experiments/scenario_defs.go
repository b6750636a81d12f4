package experiments

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/rtos"
	"repro/internal/scenario"
)

// Built-in scenario names: every command of the CLI resolves to
// one or more of these, and user specs can overlay any of them through
// the "base" field.
const (
	ScenarioApp1          = "app1"           // full study of 2×JPEG + Canny (Tables 1, Figures 2-3)
	ScenarioApp2          = "app2"           // full study of MPEG-2 (Table 2)
	ScenarioMpeg2Big      = "mpeg2-1mb"      // MPEG-2 on a 1 MB shared L2 (headline variant)
	ScenarioApp1Curves    = "app1-curves"    // miss-curve profile of application 1
	ScenarioApp2Curves    = "app2-curves"    // miss-curve profile of application 2
	ScenarioJPEG1Solo     = "jpeg1-solo"     // X1: solo decoder under the full app's allocation
	ScenarioApp1Split     = "app1-split"     // X4: split instruction/data partitions
	ScenarioApp1Migration = "app1-migration" // X5: study under task migration
	ScenarioApp1Optimize  = "app1-optimize"  // X2: fine-grained optimize leg (no measured runs)
	ScenarioApp1Column    = "app1-column"    // X2: column-caching optimize leg (one whole way each)
	ScenarioL3Shared      = "l3-shared"      // 3-level tree: private L1+L2 under a shared partitioned L3
	ScenarioClusteredL2   = "clustered-l2"   // 3-level tree: cluster-of-2 L2s under a shared partitioned L3
)

// baseSpec maps the harness configuration onto the scenario fields every
// built-in shares.
func baseSpec(cfg Config) scenario.Scenario {
	ps := scenario.PlatformSpecOf(cfg.Platform)
	return scenario.Scenario{
		Scale:    cfg.Scale.String(),
		Platform: &ps,
		Runs:     cfg.ProfileRuns,
		Solver:   cfg.Solver.String(),
	}
}

// BuiltinScenarios returns the canonical named scenario definitions for
// the given harness configuration: the paper's tables and figures plus
// the X1–X5 extension studies, as data.
func BuiltinScenarios(cfg Config) map[string]scenario.Scenario {
	defs := make(map[string]scenario.Scenario)
	add := func(name string, mutate func(*scenario.Scenario)) {
		s := baseSpec(cfg)
		s.Name = name
		if mutate != nil {
			mutate(&s)
		}
		defs[name] = s
	}

	add(ScenarioApp1, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
	})
	add(ScenarioApp2, func(s *scenario.Scenario) {
		s.Workload = "mpeg2"
	})
	add(ScenarioMpeg2Big, func(s *scenario.Scenario) {
		s.Workload = "mpeg2"
		s.Partition = scenario.PartitionShared
		big := cfg.Platform
		big.Topology = big.Topology.WithLevel(big.Topology.Partition().Name,
			func(l *cache.LevelSpec) { l.Sets *= 2 })
		ps := scenario.PlatformSpecOf(big)
		s.Platform = &ps
	})
	add(ScenarioApp1Curves, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		s.Partition = scenario.PartitionProfile
	})
	add(ScenarioApp2Curves, func(s *scenario.Scenario) {
		s.Workload = "mpeg2"
		s.Partition = scenario.PartitionProfile
	})
	add(ScenarioJPEG1Solo, func(s *scenario.Scenario) {
		s.Workload = "jpeg1-only"
		s.AllocWorkload = "2jpeg+canny"
	})
	add(ScenarioApp1Split, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny(split i/d)"
	})
	add(ScenarioApp1Migration, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		s.Migration = true
	})
	add(ScenarioApp1Optimize, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		s.Partition = scenario.PartitionOptimize
	})
	add(ScenarioApp1Column, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		s.Partition = scenario.PartitionOptimize
		// One candidate size: a whole cache way (column caching, the
		// related-work granularity of experiment X2).
		geom := cfg.Platform.PartitionGeom()
		totalUnits := geom.Sets / rtos.AllocUnit
		s.Sizes = []int{totalUnits / geom.Ways}
	})
	add(ScenarioL3Shared, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		pc := cfg.Platform
		pc.Topology = L3SharedTopology()
		ps := scenario.PlatformSpecOf(pc)
		s.Platform = &ps
	})
	add(ScenarioClusteredL2, func(s *scenario.Scenario) {
		s.Workload = "2jpeg+canny"
		pc := cfg.Platform
		pc.Topology = ClusteredL2Topology()
		ps := scenario.PlatformSpecOf(pc)
		s.Platform = &ps
	})
	return defs
}

// L3SharedTopology is the built-in 3-level tree: the section 5 private
// L1s, a private 128 KB L2 per CPU, and a shared 1 MB L3 that carries
// the partition tables and the profiler tap.
func L3SharedTopology() cache.Topology {
	return cache.Topology{Levels: []cache.LevelSpec{
		{Name: "l1", Scope: cache.ScopePrivate, Sets: 64, Ways: 4, LineSize: 64, HitLat: 0},
		{Name: "l2", Scope: cache.ScopePrivate, Sets: 512, Ways: 4, LineSize: 64, HitLat: 8},
		{Name: "l3", Scope: cache.ScopeShared, Sets: 4096, Ways: 4, LineSize: 64, HitLat: 24, Partition: true},
	}}
}

// ClusteredL2Topology is the built-in clustered tree: private L1s, one
// 512 KB L2 per cluster of two CPUs, and a shared partitioned 1 MB L3.
func ClusteredL2Topology() cache.Topology {
	return cache.Topology{Levels: []cache.LevelSpec{
		{Name: "l1", Scope: cache.ScopePrivate, Sets: 64, Ways: 4, LineSize: 64, HitLat: 0},
		{Name: "l2", Scope: cache.ClusterScope(2), Sets: 2048, Ways: 4, LineSize: 64, HitLat: 11},
		{Name: "l3", Scope: cache.ScopeShared, Sets: 4096, Ways: 4, LineSize: 64, HitLat: 24, Partition: true},
	}}
}

// BuiltinScenario resolves one built-in by name.
func BuiltinScenario(cfg Config, name string) (scenario.Scenario, bool) {
	s, ok := BuiltinScenarios(cfg)[name]
	return s, ok
}

// BuiltinNames lists the built-in scenario names, sorted.
func BuiltinNames() []string {
	defs := BuiltinScenarios(Default())
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
