// Package repro's root-level benchmark harness regenerates every table
// and figure of the paper's evaluation at paper scale:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper-comparable quantities as custom
// metrics (miss ratios, miss rates, CPI, compositionality) and logs the
// artifact rendered by the same adapters the CLI uses, so the `-v`
// output doubles as a paper-scale reproduction record. The paper-scale
// studies come from built-in scenarios on one shared runner, computed
// once and served from its memo; each benchmark's loop then measures one
// meaningful stage (a full simulation run, a solver invocation, an
// assignment search).
package repro

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

var (
	benchCfg = experiments.Config{
		Scale:       workloads.Paper,
		Platform:    experiments.Default().Platform,
		ProfileRuns: 1,
	}

	// benchRunner holds the paper-scale fixtures; its memo serves every
	// repeated fixture lookup.
	benchRunner = scenario.NewRunner(0)
)

// fixture returns the paper-scale result of one built-in scenario.
func fixture(b *testing.B, name string) *scenario.Result {
	b.Helper()
	spec, ok := experiments.BuiltinScenario(benchCfg, name)
	if !ok {
		b.Fatalf("no built-in %q", name)
	}
	r, err := benchRunner.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// fixtureCurves returns a profiling built-in's miss curves in the
// solver's input shape.
func fixtureCurves(b *testing.B, name string) []profile.Curve {
	b.Helper()
	cs := fixture(b, name).Curves
	out := make([]profile.Curve, len(cs))
	for i, c := range cs {
		out[i] = profile.Curve(c)
	}
	return out
}

// BenchmarkTable1 regenerates the Table 1 allocation (the section 3.2
// solver stage) for 2×JPEG + Canny.
func BenchmarkTable1(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	curves := fixtureCurves(b, experiments.ScenarioApp1Curves)
	w := workloads.JPEGCanny(workloads.Paper, nil)
	b.ResetTimer()
	var opt *core.OptimizeResult
	for i := 0; i < b.N; i++ {
		app, err := w.Factory()
		if err != nil {
			b.Fatal(err)
		}
		opt, err = core.OptimizeFromCurves(app, curves, core.OptimizeConfig{
			Platform: benchCfg.Platform,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.Allocation.TotalUnits()), "alloc-units")
	b.Logf("\n%s", experiments.AllocationTableFromResult(s, "Table 1: allocated L2 units, 2 jpegs & canny"))
}

// BenchmarkTable2 regenerates the Table 2 allocation for MPEG-2.
func BenchmarkTable2(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp2)
	curves := fixtureCurves(b, experiments.ScenarioApp2Curves)
	w := workloads.MPEG2(workloads.Paper, nil)
	b.ResetTimer()
	var opt *core.OptimizeResult
	for i := 0; i < b.N; i++ {
		app, err := w.Factory()
		if err != nil {
			b.Fatal(err)
		}
		opt, err = core.OptimizeFromCurves(app, curves, core.OptimizeConfig{
			Platform: benchCfg.Platform,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.Allocation.TotalUnits()), "alloc-units")
	b.Logf("\n%s", experiments.AllocationTableFromResult(s, "Table 2: allocated L2 units, mpeg2"))
}

// BenchmarkFigure2JpegCanny measures a full partitioned simulation of
// application 1 and reports the Figure 2 headline: misses vs shared.
func BenchmarkFigure2JpegCanny(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	w := workloads.JPEGCanny(workloads.Paper, nil)
	b.ResetTimer()
	var part *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		part, err = core.Run(w, core.RunConfig{
			Platform: benchCfg.Platform, Strategy: core.Partitioned, Alloc: s.Optimize.Allocation,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Shared.TotalMisses)/float64(part.TotalMisses()), "miss-ratio(paper=5)")
	b.Logf("\n%s", experiments.Figure2FromResult(s))
}

// BenchmarkFigure2Mpeg2 is the MPEG-2 panel of Figure 2.
func BenchmarkFigure2Mpeg2(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp2)
	w := workloads.MPEG2(workloads.Paper, nil)
	b.ResetTimer()
	var part *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		part, err = core.Run(w, core.RunConfig{
			Platform: benchCfg.Platform, Strategy: core.Partitioned, Alloc: s.Optimize.Allocation,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Shared.TotalMisses)/float64(part.TotalMisses()), "miss-ratio(paper=6.5)")
	b.Logf("\n%s", experiments.Figure2FromResult(s))
}

// l2Record is one captured L2-bound line reference.
type l2Record struct {
	line   uint64
	region mem.RegionID
	write  bool
}

// l2Capture is one functional run's L2-bound stream plus the entity
// mapping the profiler needs to replay it.
type l2Capture struct {
	stream   []l2Record
	names    []string
	regionOf map[mem.RegionID]int
}

var (
	capOnce  [2]sync.Once
	captures [2]*l2Capture
	capErr   [2]error
)

// captureL2Stream runs the workload once under the shared strategy with a
// recording observer and caches the result, so the Figure 3 benchmarks
// can measure the profiling stage (miss-curve extraction) in isolation
// from the functional simulation that produces the stream.
func captureL2Stream(b *testing.B, which int, w core.Workload) *l2Capture {
	b.Helper()
	capOnce[which].Do(func() {
		app, err := w.Factory()
		if err != nil {
			capErr[which] = err
			return
		}
		c := &l2Capture{regionOf: make(map[mem.RegionID]int)}
		for i, e := range app.Entities() {
			c.names = append(c.names, e.Name)
			for _, r := range e.Regions {
				c.regionOf[r] = i
			}
		}
		_, err = core.RunApp(app, core.RunConfig{
			Platform: benchCfg.Platform,
			L2Observer: func(line uint64, write bool, region mem.RegionID) {
				c.stream = append(c.stream, l2Record{line: line, region: region, write: write})
			},
		})
		if err != nil {
			capErr[which] = err
			return
		}
		captures[which] = c
	})
	if capErr[which] != nil {
		b.Fatal(capErr[which])
	}
	return captures[which]
}

// benchProfilingStage replays a captured L2-bound stream through both
// profiling engines. This is the stage the paper calls "obtained by
// simulation": turning one run's stream into per-entity miss curves at
// every candidate size. The stackdist/bank ratio is the single-pass
// speedup over the bank-of-caches oracle.
func benchProfilingStage(b *testing.B, cap *l2Capture, maxRelDiff float64) {
	for _, engine := range []profile.Engine{profile.EngineStackDist, profile.EngineBank} {
		b.Run(engine.String(), func(b *testing.B) {
			pcfg := profile.Config{
				Sizes:    []int{1, 2, 4, 8, 16, 32, 64, 128},
				UnitSets: rtos.AllocUnit,
				Ways:     benchCfg.Platform.PartitionGeom().Ways,
				LineSize: benchCfg.Platform.PartitionGeom().LineSize,
				Engine:   engine,
			}
			b.ResetTimer()
			var curves []profile.Curve
			for i := 0; i < b.N; i++ {
				p, err := profile.New(pcfg, cap.names, cap.regionOf)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range cap.stream {
					p.Observe(r.line, r.write, r.region)
				}
				curves = p.Curves()
			}
			b.ReportMetric(float64(len(cap.stream))/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "Maccesses/s")
			// A parent benchmark that calls b.Run never reports its
			// own metrics, so the study's compositionality figure is
			// attached to each engine's result line instead.
			b.ReportMetric(maxRelDiff*100, "maxreldiff-%(paper<=2)")
			if len(curves) == 0 {
				b.Fatal("no curves")
			}
		})
	}
}

// BenchmarkFigure3JpegCanny measures the profiling stage (expected-miss
// prediction) behind Figure 3 — replaying application 1's captured
// L2-bound stream into each engine — and reports the compositionality
// metric of the full study.
func BenchmarkFigure3JpegCanny(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	cap := captureL2Stream(b, 0, workloads.JPEGCanny(workloads.Paper, nil))
	benchProfilingStage(b, cap, s.Compose.MaxRelDiff)
	chart, _ := experiments.Figure3FromResult(s)
	b.Logf("\n%s", chart)
}

// BenchmarkFigure3Mpeg2 is the MPEG-2 panel of Figure 3.
func BenchmarkFigure3Mpeg2(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp2)
	cap := captureL2Stream(b, 1, workloads.MPEG2(workloads.Paper, nil))
	benchProfilingStage(b, cap, s.Compose.MaxRelDiff)
	chart, _ := experiments.Figure3FromResult(s)
	b.Logf("\n%s", chart)
}

// BenchmarkProfilePipelineJpegCanny measures the full profiling pipeline
// (functional simulation + default engine) — the end-to-end cost of one
// jittered repetition of core.Profile.
func BenchmarkProfilePipelineJpegCanny(b *testing.B) {
	w := workloads.JPEGCanny(workloads.Paper, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Profile(w, core.OptimizeConfig{Platform: benchCfg.Platform, Runs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyJpegCanny measures the end-to-end study (trace capture,
// shared run, profile, optimize, partitioned run) of the built-in app1
// scenario on a fresh runner, sequentially and with the runner's worker
// pool, tracking the fan-out win.
func BenchmarkStudyJpegCanny(b *testing.B) {
	cfg := benchCfg
	cfg.ProfileRuns = 2
	spec, _ := experiments.BuiltinScenario(cfg, experiments.ScenarioApp1)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.NewRunner(bc.workers).Run(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeadlineJpegCanny measures the shared-cache baseline run of
// application 1 and reports the in-text headline metrics.
func BenchmarkHeadlineJpegCanny(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	w := workloads.JPEGCanny(workloads.Paper, nil)
	b.ResetTimer()
	var shared *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		shared, err = core.Run(w, core.RunConfig{Platform: benchCfg.Platform})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shared.L2MissRate*100, "shared-missrate-%(paper=9.46)")
	b.ReportMetric(s.Partitioned.L2MissRate*100, "part-missrate-%(paper=2.21)")
	b.ReportMetric(shared.CPIMean, "shared-CPI(paper=1.4)")
	b.ReportMetric(s.Partitioned.CPIMean, "part-CPI(paper=1.1)")
}

// BenchmarkHeadlineMpeg2 reports the MPEG-2 headline metrics.
func BenchmarkHeadlineMpeg2(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp2)
	w := workloads.MPEG2(workloads.Paper, nil)
	b.ResetTimer()
	var shared *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		shared, err = core.Run(w, core.RunConfig{Platform: benchCfg.Platform})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(shared.L2MissRate*100, "shared-missrate-%(paper=5.1)")
	b.ReportMetric(s.Partitioned.L2MissRate*100, "part-missrate-%(paper=0.8)")
	b.ReportMetric(shared.CPIMean, "shared-CPI(paper~1.75)")
	b.ReportMetric(s.Partitioned.CPIMean, "part-CPI(paper~1.65)")
}

// BenchmarkHeadlineMpeg2OneMB reproduces the paper's 1 MB shared-L2
// MPEG-2 data point.
func BenchmarkHeadlineMpeg2OneMB(b *testing.B) {
	w := workloads.MPEG2(workloads.Paper, nil)
	pc := benchCfg.Platform
	pc.Topology = pc.Topology.WithLevel("l2", func(l *cache.LevelSpec) { l.Sets *= 2 })
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Run(w, core.RunConfig{Platform: pc})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.L2MissRate*100, "missrate-%(paper=0.6)")
	b.ReportMetric(res.CPIMean, "CPI(paper=1.7)")
}

// BenchmarkCompositionality is extension X1: jpeg1's misses alone vs
// co-scheduled, under the partitioned cache (the loop measures the solo
// partitioned run).
func BenchmarkCompositionality(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	solo := workloads.JPEG1Only(workloads.Paper)
	b.ResetTimer()
	var soloPart *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		soloPart, err = core.Run(solo, core.RunConfig{
			Platform: benchCfg.Platform, Strategy: core.Partitioned, Alloc: s.Optimize.Allocation,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var soloM, corunM float64
	for _, n := range []string{"FrontEnd1", "IDCT1", "Raster1", "BackEnd1"} {
		if e := soloPart.Entity(n); e != nil {
			soloM += float64(e.Misses)
		}
		if e := s.Partitioned.Entity(n); e != nil {
			corunM += float64(e.Misses)
		}
	}
	shift := (corunM - soloM) / soloM
	if shift < 0 {
		shift = -shift
	}
	b.ReportMetric(shift*100, "partitioned-shift-%")
}

// BenchmarkGranularityAblation is extension X2: resolving the same
// program at column-caching (whole-way) granularity.
func BenchmarkGranularityAblation(b *testing.B) {
	curves := fixtureCurves(b, experiments.ScenarioApp1Curves)
	w := workloads.JPEGCanny(workloads.Paper, nil)
	geom := benchCfg.Platform.PartitionGeom()
	wayUnits := geom.Sets / 8 / geom.Ways
	b.ResetTimer()
	feasible := 0
	for i := 0; i < b.N; i++ {
		app, err := w.Factory()
		if err != nil {
			b.Fatal(err)
		}
		_, err = core.OptimizeFromCurves(app, curves, core.OptimizeConfig{
			Platform: benchCfg.Platform,
			Sizes:    []int{wayUnits},
		})
		if err == nil {
			feasible++
		}
	}
	b.ReportMetric(float64(feasible)/float64(b.N), "way-granularity-feasible")
}

// BenchmarkAssignment is extension X3: the section 3.1 assignment search
// over measured task times.
func BenchmarkAssignment(b *testing.B) {
	s := fixture(b, experiments.ScenarioApp1)
	cycles := s.Partitioned.TaskCycles
	cpus := benchCfg.Platform.NumCPUs
	b.ResetTimer()
	var lptMk, lsMk uint64
	for i := 0; i < b.N; i++ {
		lpt := core.AssignLPT(cycles, cpus)
		loads, err := core.ProcessorLoads(cycles, lpt, cpus)
		if err != nil {
			b.Fatal(err)
		}
		lptMk = core.Makespan(loads)
		ls := core.AssignLocalSearch(cycles, cpus, lpt)
		loads, _ = core.ProcessorLoads(cycles, ls, cpus)
		lsMk = core.Makespan(loads)
	}
	b.ReportMetric(float64(lptMk), "LPT-makespan")
	b.ReportMetric(float64(lsMk), "localsearch-makespan")
	b.Logf("\n%s", experiments.AssignmentFromResult(s, cpus))
}

// benchRunStage measures one execution-engine stage — a full functional
// simulation of an application — under both engines, so engine wins are
// tracked separately from the profiling stage (BenchmarkFigure3*) and
// from the end-to-end pipeline.
func benchRunStage(b *testing.B, s *scenario.Result, w core.Workload, strategy core.Strategy) {
	for _, eng := range []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact} {
		b.Run(eng.String(), func(b *testing.B) {
			rc := core.RunConfig{Platform: benchCfg.Platform, Strategy: strategy}
			rc.Platform.Engine = eng
			if strategy == core.Partitioned {
				rc.Alloc = s.Optimize.Allocation
			}
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(w, rc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Platform.Makespan)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "simcycles/ns")
		})
	}
}

// BenchmarkRunSharedJpegCanny measures the shared-cache functional run of
// application 1 per execution engine.
func BenchmarkRunSharedJpegCanny(b *testing.B) {
	benchRunStage(b, nil, workloads.JPEGCanny(workloads.Paper, nil), core.Shared)
}

// BenchmarkRunSharedJpegCannyL3 measures the shared-cache run of
// application 1 on the built-in 3-level l3-shared tree (private L1 + L2
// under a shared 1 MB L3), per execution engine — the per-level walk
// cost next to BenchmarkRunSharedJpegCanny's 2-level tile.
func BenchmarkRunSharedJpegCannyL3(b *testing.B) {
	w := workloads.JPEGCanny(workloads.Paper, nil)
	for _, eng := range []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact} {
		b.Run(eng.String(), func(b *testing.B) {
			rc := core.RunConfig{Platform: benchCfg.Platform}
			rc.Platform.Topology = experiments.L3SharedTopology()
			rc.Platform.Engine = eng
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(w, rc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Platform.Makespan)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "simcycles/ns")
		})
	}
}

// BenchmarkRunSharedMpeg2 measures the shared-cache functional run of the
// MPEG-2 decoder per execution engine.
func BenchmarkRunSharedMpeg2(b *testing.B) {
	benchRunStage(b, nil, workloads.MPEG2(workloads.Paper, nil), core.Shared)
}

// BenchmarkRunPartitionedJpegCanny measures the partitioned run of
// application 1 per execution engine.
func BenchmarkRunPartitionedJpegCanny(b *testing.B) {
	benchRunStage(b, fixture(b, experiments.ScenarioApp1), workloads.JPEGCanny(workloads.Paper, nil), core.Partitioned)
}

// BenchmarkRunPartitionedMpeg2 measures the partitioned run of the MPEG-2
// decoder per execution engine.
func BenchmarkRunPartitionedMpeg2(b *testing.B) {
	benchRunStage(b, fixture(b, experiments.ScenarioApp2), workloads.MPEG2(workloads.Paper, nil), core.Partitioned)
}

// BenchmarkSmallAppEndToEnd measures the simulator's throughput on the
// small-scale application (useful for tracking simulator performance).
func BenchmarkSmallAppEndToEnd(b *testing.B) {
	w := workloads.JPEGCanny(workloads.Small, nil)
	pc := experiments.Small().Platform
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(w, core.RunConfig{Platform: pc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadFactoryJpegCanny isolates application construction
// (content synthesis, tables, regions) — the setup cost shared by every
// Run* benchmark iteration, useful when attributing engine wins.
func BenchmarkWorkloadFactoryJpegCanny(b *testing.B) {
	w := workloads.JPEGCanny(workloads.Paper, nil)
	for i := 0; i < b.N; i++ {
		if _, err := w.Factory(); err != nil {
			b.Fatal(err)
		}
	}
}
