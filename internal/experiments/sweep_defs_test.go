package experiments

import (
	"testing"
)

// TestPaperGridExpansion checks the built-in candidate-size grid: ≥32
// valid points covering the L2 capacity ladder crossed with the
// execution-side knobs, every point a normalizable scenario.
func TestPaperGridExpansion(t *testing.T) {
	sw, ok := BuiltinSweep(Small(), SweepPaperGrid)
	if !ok {
		t.Fatal("paper-grid not defined")
	}
	points, total, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if total < 32 || len(points) != total {
		t.Fatalf("paper-grid must expand to ≥32 points uncapped, got %d of %d", len(points), total)
	}
	sets := map[int]bool{}
	for _, p := range points {
		n, err := p.Scenario.Normalize()
		if err != nil {
			t.Fatalf("point %d (%v) does not normalize: %v", p.Index, p.Coords, err)
		}
		pc, err := n.Platform.Config()
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		sets[pc.PartitionGeom().Sets] = true
	}
	// 128..1024 KiB over 4 ways × 64 B lines.
	for _, want := range []int{512, 1024, 2048, 4096} {
		if !sets[want] {
			t.Errorf("capacity ladder misses %d sets (have %v)", want, sets)
		}
	}
	// The solver and exec axes only spell twins — both normalize to the
	// production choice — so the 32 points are 8 distinct scenarios
	// (capacity × migration). Migration changes neither profiling nor
	// the solve, so they share one profile and one optimize stage per
	// capacity, and every point replays the one captured trace.
	keys := map[string]bool{}
	stages := map[string]map[string]bool{}
	for _, p := range points {
		k, err := p.Scenario.Key()
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		keys[k] = true
		sk, err := p.Scenario.StageKeys()
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		for label, key := range sk {
			if stages[label] == nil {
				stages[label] = map[string]bool{}
			}
			stages[label][key] = true
		}
	}
	if len(keys) != 8 {
		t.Errorf("paper-grid has %d distinct content keys, want 8", len(keys))
	}
	want := map[string]int{"profile": 4, "optimize": 4, "run.shared": 8, "run.partitioned": 8, "trace": 1}
	for label, n := range want {
		if got := len(stages[label]); got != n {
			t.Errorf("paper-grid has %d distinct %s stages, want %d", got, label, n)
		}
	}
	for label := range stages {
		if _, ok := want[label]; !ok {
			t.Errorf("paper-grid runs unexpected %s stages", label)
		}
	}
}
