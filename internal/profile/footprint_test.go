package profile_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/rtos"
	"repro/internal/workloads"
)

// profilerAllocBudget bounds what building a profiler for the small
// 2×JPEG + Canny application and observing one shared run's L2 stream
// allocates. With stacks allocated per touched group and grown with
// their contents, its 38 entities allocate about 0.98 MB, growth copies
// included; reserving every group's bounded stack up front would
// allocate 4.75 MB.
const profilerAllocBudget = 1_500_000

// TestProfilerAllocatesWhatItHolds records one small 2jpeg+canny shared
// run's L2-bound stream, then holds profile.New plus observing that
// stream to profilerAllocBudget bytes (runtime TotalAlloc delta).
func TestProfilerAllocatesWhatItHolds(t *testing.T) {
	w, err := workloads.Build("2jpeg+canny", workloads.BuildConfig{Scale: workloads.Small})
	if err != nil {
		t.Fatal(err)
	}
	app, err := w.Factory()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	regionOf := make(map[mem.RegionID]int)
	for i, e := range app.Entities() {
		names = append(names, e.Name)
		for _, r := range e.Regions {
			regionOf[r] = i
		}
	}
	type ref struct {
		line   uint64
		write  bool
		region mem.RegionID
	}
	var stream []ref
	pc := platform.Default()
	_, err = core.RunApp(app, core.RunConfig{
		Platform: pc,
		Strategy: core.Shared,
		L2Observer: func(line uint64, write bool, region mem.RegionID) {
			stream = append(stream, ref{line, write, region})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := profile.Config{
		Sizes:    []int{1, 2, 4, 8, 16, 32, 64, 128},
		UnitSets: rtos.AllocUnit,
		Ways:     pc.PartitionGeom().Ways,
		LineSize: pc.PartitionGeom().LineSize,
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := profile.New(cfg, names, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stream {
		p.Observe(r.line, r.write, r.region)
	}
	runtime.ReadMemStats(&after)

	if len(p.Curves()) != len(names) {
		t.Fatalf("%d curves for %d entities", len(p.Curves()), len(names))
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > profilerAllocBudget {
		t.Fatalf("profiling %d entities over %d L2 references allocates %d bytes, budget %d",
			len(names), len(stream), got, profilerAllocBudget)
	}
	t.Logf("profiling %d entities over %d L2 references allocates %d bytes (budget %d)",
		len(names), len(stream), got, profilerAllocBudget)
}
