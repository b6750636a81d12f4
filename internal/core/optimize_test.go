package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kpn"
	"repro/internal/profile"
	"repro/internal/rtos"
)

func optCfg() OptimizeConfig {
	return OptimizeConfig{
		Platform: smallPlatform(), // 512-set L2 = 64 units
		Sizes:    []int{1, 2, 4, 8, 16, 32},
		Runs:     2,
	}
}

func TestProfileProducesCurves(t *testing.T) {
	curves, err := Profile(loopStreamWorkload(), optCfg())
	if err != nil {
		t.Fatal(err)
	}
	lc := profile.CurveByEntity(curves, "looper")
	if lc == nil {
		t.Fatal("no looper curve")
	}
	if lc.Accesses == 0 {
		t.Error("looper curve has no accesses")
	}
	// The looper's 32 KiB table thrashes in 1 unit (2 KiB) and fits in
	// 32 units (64 KiB): the curve must fall significantly.
	if lc.Misses[0] < 4*lc.Misses[len(lc.Misses)-1] {
		t.Errorf("looper curve too flat: %v", lc.Misses)
	}
}

// TestProfileBuildsEachAppInItsRepetition checks Profile builds each
// repetition's app inside that repetition, so a worker holds one built
// app at a time, and that it refuses more runs than there are distinct
// repetitions.
func TestProfileBuildsEachAppInItsRepetition(t *testing.T) {
	var log []string
	builds := 0
	w := Workload{Name: "logged", Factory: func() (*App, error) {
		i := builds
		builds++
		log = append(log, fmt.Sprintf("build %d", i))
		b := NewBuilder("logged")
		b.AddTask(TaskConfig{Name: "task", Body: func(c *kpn.Ctx) {
			log = append(log, fmt.Sprintf("run %d", i))
			c.Exec(1)
		}})
		return b.Build()
	}}
	oc := optCfg()
	oc.Workers, oc.Runs = 1, 3
	if _, err := Profile(w, oc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"build 0", "run 0", "build 1", "run 1", "build 2", "run 2"}; !reflect.DeepEqual(log, want) {
		t.Errorf("Profile ran %v, want %v", log, want)
	}
	oc.Runs = MaxProfileRuns + 1
	if _, err := Profile(w, oc); err == nil {
		t.Errorf("Profile accepted %d runs", oc.Runs)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	w := loopStreamWorkload()
	oc := optCfg()
	opt, err := Optimize(w, oc)
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility.
	total := opt.Allocation.TotalUnits()
	if total > 64-rtUnits {
		t.Fatalf("allocation %d units exceeds budget", total)
	}
	// FIFO pinned to its size.
	if opt.Allocation["sync"] != 1 {
		t.Errorf("FIFO allocation = %d, want pinned 1", opt.Allocation["sync"])
	}
	// The looper should receive a big partition (its curve falls), the
	// streamer's allocation should not exceed the looper's.
	if opt.Allocation["looper"] < 8 {
		t.Errorf("looper allocation = %d, want >= 8", opt.Allocation["looper"])
	}
	// Every entity has an allocation and an expectation.
	app, _ := w.Factory()
	for _, e := range app.Entities() {
		if opt.Allocation[e.Name] == 0 {
			t.Errorf("entity %q has no allocation", e.Name)
		}
		if _, ok := opt.Expected[e.Name]; !ok {
			t.Errorf("entity %q has no expectation", e.Name)
		}
	}

	// The optimized partitioned system must beat the shared baseline.
	shared, err := Run(w, RunConfig{Platform: oc.Platform})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(w, RunConfig{
		Platform: oc.Platform, Strategy: Partitioned,
		Alloc: opt.Allocation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if part.TotalMisses() >= shared.TotalMisses() {
		t.Errorf("optimized partitioning (%d misses) not better than shared (%d)",
			part.TotalMisses(), shared.TotalMisses())
	}

	// Figure 3: the model's expectations must match the partitioned
	// simulation closely (the paper reports <= 2%; allow slack for the
	// small test workload).
	rep := CompareExpectedSimulated(opt.Expected, part)
	if rep.MaxRelDiff > 0.10 {
		t.Errorf("compositionality violated: max rel diff %.3f", rep.MaxRelDiff)
	}
}

func TestOptimizeILPAgreesWithMCKP(t *testing.T) {
	w := loopStreamWorkload()
	oc := optCfg()
	oc.Runs = 1
	curves, err := Profile(w, oc)
	if err != nil {
		t.Fatal(err)
	}
	app1, _ := w.Factory()
	mc, err := OptimizeFromCurves(app1, curves, oc)
	if err != nil {
		t.Fatal(err)
	}
	oc.Solver = SolverILP
	app2, _ := w.Factory()
	il, err := OptimizeFromCurves(app2, curves, oc)
	if err != nil {
		t.Fatal(err)
	}
	var mcCost, ilCost float64
	for n, e := range mc.Expected {
		mcCost += e
		_ = n
	}
	for _, e := range il.Expected {
		ilCost += e
	}
	if diff := mcCost - ilCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("solver disagreement: mckp %.1f vs ilp %.1f", mcCost, ilCost)
	}
}

func TestOptimizeFromCurvesMissingEntity(t *testing.T) {
	w := loopStreamWorkload()
	app, _ := w.Factory()
	_, err := OptimizeFromCurves(app, nil, optCfg())
	if err == nil {
		t.Fatal("missing curves accepted")
	}
}

func TestOptimizeDefaultsFilled(t *testing.T) {
	oc := OptimizeConfig{Platform: smallPlatform()}
	oc.fillDefaults()
	if len(oc.Sizes) == 0 || oc.Runs == 0 {
		t.Error("defaults not filled")
	}
}

func TestCeilPow2(t *testing.T) {
	for in, want := range map[int]int{1: 1, 2: 2, 3: 4, 9: 16, 16: 16} {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestUnitBytesConsistent(t *testing.T) {
	// One unit of the default platform geometry: 8 sets × 4 ways × 64 B.
	if UnitBytes != rtos.AllocUnit*4*64 {
		t.Errorf("UnitBytes = %d", UnitBytes)
	}
}
