package sweep_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// BenchmarkWarmSweepPaperGrid times a warm Execute of the small 32-point
// paper grid on the runner that ran it cold: every point's result is
// resident and the sweep's plan memoized, with every point's
// sensitivity row, so an iteration is one spec hash, one plan lookup, 32
// result lookups and the aggregation, a pass of adds and two Pareto
// sorts. Its allocations are little more than the results slab and the
// aggregate it returns, 17 objects and 11.8 KB, which TestWarmSweepAllocs
// holds to 24 objects and 14 KB.
//
//	go test -run '^$' -bench BenchmarkWarmSweepPaperGrid -benchmem -count 3 ./internal/sweep/
func BenchmarkWarmSweepPaperGrid(b *testing.B) {
	sw, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		b.Fatal("no built-in paper grid")
	}
	rn := scenario.NewRunner(2)
	defer rn.Close()
	res, err := sweep.Execute(context.Background(), rn, sw, nil)
	if err != nil {
		b.Fatal(err)
	}
	if res.Failed != 0 {
		b.Fatalf("cold sweep: %d points failed", res.Failed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Execute(context.Background(), rn, sw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSweepPaperGrid times a cold Execute of the small 32-point
// paper grid: every iteration builds a fresh runner, so it captures the
// traces, profiles, optimizes and runs every distinct point, and its
// allocations are those of the cold stages.
//
//	go test -run '^$' -bench BenchmarkColdSweepPaperGrid -count 3 ./internal/sweep/
func BenchmarkColdSweepPaperGrid(b *testing.B) {
	sw, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		b.Fatal("no built-in paper grid")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rn := scenario.NewRunner(2)
		res, err := sweep.Execute(context.Background(), rn, sw, nil)
		rn.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("cold sweep: %d points failed", res.Failed)
		}
	}
}
