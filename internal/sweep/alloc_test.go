package sweep_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// warmSweepAllocBudget and warmSweepByteBudget bound what one warm
// small paper-grid sweep allocates. Such a sweep is a plan key, a plan
// lookup, 32 result hits and the aggregation, and allocates little more
// than its output: the results slab pointing at the plan's specs, the
// point summaries with one metrics slab, and the sensitivity, extremes
// and Pareto tables. It measures 17 objects and 11.8 KB on amd64 (18-19
// and 12.2-12.5 KB under -race). A plan key built through a reflected key
// document, with a memo key concatenated for the plan lookup, and
// sensitivity tables numbered per call, allocated 36 objects and
// 12.2 KB; a point result that copied its spec, or per-point
// aggregation scratch, 185 objects and 28.3 KB.
const (
	warmSweepAllocBudget = 24
	warmSweepByteBudget  = 14 << 10
)

// TestWarmSweepAllocs holds a warm Execute of the small paper grid, on
// the runner that swept it cold, to warmSweepAllocBudget objects
// (testing.AllocsPerRun) and warmSweepByteBudget bytes (the runtime's
// TotalAlloc delta) per sweep.
func TestWarmSweepAllocs(t *testing.T) {
	sw, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	rn := scenario.NewRunner(2)
	defer rn.Close()
	if res, err := sweep.Execute(context.Background(), rn, sw, nil); err != nil || res.Failed != 0 {
		t.Fatalf("cold sweep: %v, %d points failed", err, res.Failed)
	}
	warm := func() {
		res, err := sweep.Execute(context.Background(), rn, sw, nil)
		if err != nil || res.Stats.StageRuns != 0 {
			t.Fatalf("warm sweep: %v, stats %+v", err, res.Stats)
		}
	}

	objects := testing.AllocsPerRun(100, warm)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		warm()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm sweep allocates %.0f objects and %d bytes", objects, bytes)
	if objects > warmSweepAllocBudget {
		t.Errorf("%.0f objects per warm sweep, budget %d", objects, warmSweepAllocBudget)
	}
	if bytes > warmSweepByteBudget {
		t.Errorf("%d bytes per warm sweep, budget %d", bytes, warmSweepByteBudget)
	}
}
