package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// smallStudyAllocBudget bounds the heap allocations of one full
// Small-scale study (shared run + profile/optimize + partitioned run).
// The arena-backed platform keeps per-simulation state off the heap, so
// a study's allocation count is dominated by workload construction and
// the profiler, and must stay flat: regressions here mean someone
// reintroduced per-access or per-resume allocation into the hot path.
// Measured ~14k objects per study after the arena refactor; the budget
// leaves ~5x headroom for benign drift before the alarm fires.
const smallStudyAllocBudget = 75_000

// TestSmallStudyBoundedAllocs pins the per-run allocation count of a
// complete Small-scale study. The first study warms the arena pool and
// the interned topology descriptor; steady-state studies must then fit
// the budget.
func TestSmallStudyBoundedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	cfg := Small()
	cfg.Workers = 1
	w := workloads.JPEGCanny(workloads.Small, nil)
	if _, err := runDirect(w, cfg); err != nil { // warmup
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := runDirect(w, cfg); err != nil {
			t.Error(err)
		}
	})
	if allocs > smallStudyAllocBudget {
		t.Fatalf("full Small study allocates %.0f objects per run, budget %d",
			allocs, smallStudyAllocBudget)
	}
	t.Logf("full Small study: %.0f objects per run (budget %d)", allocs, smallStudyAllocBudget)
}

// miniGrid is a trimmed 4-point sweep over the L2 ladder and both
// execution engines — enough to keep a runner busy while standalone
// simulations run beside it.
func miniGrid(cfg Config) sweep.Sweep {
	base := baseSpec(cfg)
	base.Workload = "mpeg2"
	return sweep.Sweep{
		Name: "mini-grid",
		Base: base,
		Axes: []sweep.Axis{
			{Name: "l2_kb", Field: "platform.l2.kb", Values: rawInts(256, 512)},
			{Name: "exec", Field: "exec_engine", Values: rawStrings("merged", "word")},
		},
	}
}

// TestConcurrentSimulationsBitIdentical is the isolation proof for the
// shared immutable artifacts: two independent simulations that resolve
// the same interned topology descriptor, run concurrently with each
// other AND with a sweep executing on its own runner, must produce
// results bit-identical to the same work run sequentially. Under -race
// this doubles as the data-race check for the descriptor/state split
// and the arena pool.
func TestConcurrentSimulationsBitIdentical(t *testing.T) {
	cfg := Small()
	rc := core.RunConfig{Platform: cfg.Platform}
	wA := workloads.JPEGCanny(workloads.Small, nil)
	wB := workloads.MPEG2(workloads.Small, nil)

	// Both simulations must share one immutable descriptor: interning
	// is keyed by the canonical topology encoding, so equal configs
	// resolve to the same pointer.
	d1, err := cfg.Platform.Topology.Describe(cfg.Platform.NumCPUs)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cfg.Platform.Topology.Describe(cfg.Platform.NumCPUs)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("equal topologies interned to distinct descriptors: %p vs %p", d1, d2)
	}

	// Sequential reference.
	seqA, err := core.Run(wA, rc)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := core.Run(wB, rc)
	if err != nil {
		t.Fatal(err)
	}
	seqSweep, err := sweep.Execute(context.Background(), scenario.NewRunner(1), miniGrid(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}

	// The same three workloads, interleaved.
	var (
		conA, conB       *core.Result
		conSweep         *sweep.Result
		errA, errB, errS error
		wg               sync.WaitGroup
	)
	wg.Add(3)
	go func() { defer wg.Done(); conA, errA = core.Run(wA, rc) }()
	go func() { defer wg.Done(); conB, errB = core.Run(wB, rc) }()
	go func() {
		defer wg.Done()
		conSweep, errS = sweep.Execute(context.Background(), scenario.NewRunner(1), miniGrid(cfg), nil)
	}()
	wg.Wait()
	for _, err := range []error{errA, errB, errS} {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(seqA, conA) {
		t.Errorf("concurrent %s run differs from sequential", wA.Name)
	}
	if !reflect.DeepEqual(seqB, conB) {
		t.Errorf("concurrent %s run differs from sequential", wB.Name)
	}
	if seqSweep.Executed != conSweep.Executed || seqSweep.Failed != conSweep.Failed {
		t.Errorf("sweep outcome differs: seq %d/%d, concurrent %d/%d",
			seqSweep.Executed, seqSweep.Failed, conSweep.Executed, conSweep.Failed)
	}
	if !reflect.DeepEqual(seqSweep.Points, conSweep.Points) {
		t.Errorf("sweep point summaries differ between sequential and interleaved execution")
	}
}
