package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workloads"
)

// gateSeq keeps gated workload names unique, so the tests register
// fresh workloads under -count=N.
var gateSeq atomic.Int64

// gate is a registered workload (jpeg1-only underneath) whose factory
// closes entered on its first call and blocks every call until release
// is closed; the first `failures` calls past the gate then fail.
type gate struct {
	name     string
	entered  chan struct{}
	release  chan struct{}
	enter    sync.Once
	openOnce sync.Once
}

func registerGate(t *testing.T, failures int32) *gate {
	t.Helper()
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	g := &gate{
		name:    fmt.Sprintf("gate-%d", gateSeq.Add(1)),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	remaining := failures
	err := workloads.Register(g.name, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			g.enter.Do(func() { close(g.entered) })
			<-g.release
			if atomic.AddInt32(&remaining, -1) >= 0 {
				return nil, errors.New("transient build failure")
			}
			return inner()
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.open) // never leave a batch blocked behind a failed test
	return g
}

func (g *gate) open() { g.openOnce.Do(func() { close(g.release) }) }

// await waits for ch, failing the test if it never closes.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// batchRun is a batch running on its own goroutine: the in-order walk
// of RunBatchStream blocks its caller, and the tests must steer the
// gates meanwhile. results and errs are safe to read once done closes.
type batchRun struct {
	results []*Result
	errs    []error
	done    chan struct{}
}

func startBatch(ctx context.Context, rn *Runner, specs []Scenario) *batchRun {
	b := &batchRun{done: make(chan struct{})}
	go func() {
		defer close(b.done)
		var workers <-chan struct{}
		b.results, b.errs, workers = rn.RunBatchStream(ctx, specs, nil)
		<-workers
	}()
	return b
}

// profileOf is the cheap profile-only scenario of a workload.
func profileOf(workload string) Scenario {
	return Scenario{Workload: workload, Scale: "small", Runs: 1, Partition: PartitionProfile}
}

// twinBatch starts [A, A's word twin, B] on two workers, with A blocked
// in its factory, and returns once B has started too: A and its twin
// are one group, so the other worker takes B's group instead of waiting
// on A's execution. The caller opens a.
func twinBatch(t *testing.T, ctx context.Context, rn *Runner, a Scenario, ga *gate, b Scenario, gb *gate) *batchRun {
	t.Helper()
	twin := a
	twin.ExecEngine = "word"
	gb.open()
	run := startBatch(ctx, rn, []Scenario{a, twin, b})
	await(t, ga.entered, "A's factory")
	await(t, gb.entered, "B's factory while A is blocked (a worker is parked on A's duplicate)")
	return run
}

// TestBatchDuplicateFreesWorker is the regression test for parked
// workers: an engine twin in the batch must not hold a pool worker
// waiting on its twin's in-flight stages, so with two workers and A
// blocked in its factory, B starts.
func TestBatchDuplicateFreesWorker(t *testing.T) {
	ga, gb := registerGate(t, 0), registerGate(t, 0)
	rn := NewRunner(2)
	run := twinBatch(t, context.Background(), rn, profileOf(ga.name), ga, profileOf(gb.name), gb)
	ga.open()
	await(t, run.done, "the batch")
	for i, r := range run.results {
		if r == nil || r.Error != "" || len(r.Curves) == 0 {
			t.Fatalf("result %d incomplete: %+v", i, r)
		}
	}
	a, _ := json.Marshal(run.results[0])
	b, _ := json.Marshal(run.results[1])
	if string(a) != string(b) {
		t.Errorf("engine twins disagree:\n%s\nvs\n%s", a, b)
	}
	// A trace capture and a profile stage each for A and for B.
	if st := rn.Stats(); st.StageRuns != 4 || st.MemoHits != 1 {
		t.Errorf("want 4 stage runs and the twin's 1 memo hit, got %+v", st)
	}
}

// TestBatchDuplicatesRunStagesOnce checks a batch mixing engine twins and
// renamed copies of two specs runs every stage exactly once, and every
// result equals the same spec run alone.
func TestBatchDuplicatesRunStagesOnce(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	b.Seed = 7
	var batch []Scenario
	for _, mutate := range []func(*Scenario){
		func(*Scenario) {},
		func(s *Scenario) { s.ExecEngine = "word" },
		func(s *Scenario) { s.ProfileEngine = "bank" },
		func(s *Scenario) { s.Name = "renamed"; s.ExecEngine = "word" },
	} {
		for _, s := range []Scenario{a, b} {
			mutate(&s)
			batch = append(batch, s)
		}
	}
	rn := NewRunner(2)
	results := rn.RunBatch(batch)
	if st := rn.Stats(); st.StageRuns != 4 || st.TraceRuns != 2 || st.ProfileRuns != 2 {
		t.Errorf("want one capture and one profile stage per distinct spec, got %+v", st)
	}
	for i, s := range batch {
		alone, err := NewRunner(1).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(results[i])
		want, _ := json.Marshal(alone)
		if string(got) != string(want) {
			t.Errorf("result %d differs from the spec run alone:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestBatchDuplicateCanceled checks a duplicate waiting in its group
// counts as never started: when ctx is canceled before its twin
// finishes, the duplicate's slot stays nil and none of its stages run,
// while the scenarios already executing complete.
func TestBatchDuplicateCanceled(t *testing.T) {
	ga, gb := registerGate(t, 0), registerGate(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn := NewRunner(2)
	run := twinBatch(t, ctx, rn, profileOf(ga.name), ga, profileOf(gb.name), gb)
	cancel()
	ga.open()
	await(t, run.done, "the batch")

	if (run.results[0] == nil) == (run.results[1] == nil) {
		t.Fatalf("exactly one of A and its twin must stay unstarted, got %+v and %+v", run.results[0], run.results[1])
	}
	for _, r := range append(run.results[:2:2], run.results[2]) {
		if r != nil && (r.Error != "" || len(r.Curves) == 0) {
			t.Errorf("a scenario executing before the cancel must complete, got %+v", r)
		}
	}
	if st := rn.Stats(); st.StageRuns != 4 || st.MemoHits != 0 {
		t.Errorf("the unstarted duplicate must run no stage, got %+v", st)
	}
}

// TestBatchDuplicateRetriesFailedLeader checks errors stay unmemoized
// inside a batch: when the first execution of a group fails, the
// duplicate after it reports its own outcome — it re-executes the
// failed stages, and the retry is counted.
func TestBatchDuplicateRetriesFailedLeader(t *testing.T) {
	ga, gb := registerGate(t, 1), registerGate(t, 0)
	rn := NewRunner(2)
	run := twinBatch(t, context.Background(), rn, profileOf(ga.name), ga, profileOf(gb.name), gb)
	ga.open()
	await(t, run.done, "the batch")

	var failed, succeeded int
	for i, r := range run.results[:2] {
		switch {
		case r == nil:
			t.Fatalf("result %d is nil", i)
		case strings.Contains(r.Error, "transient build failure"):
			failed++
		case r.Error == "" && len(r.Curves) > 0:
			succeeded++
		}
	}
	if failed != 1 || succeeded != 1 {
		t.Errorf("want the first execution failed and its duplicate retried successfully, got %+v and %+v", run.results[0], run.results[1])
	}
	// The failed trace and profile stages, their retries, and B's two.
	if st := rn.Stats(); st.StageRuns != 6 || st.StageErrors != 2 {
		t.Errorf("want 6 stage runs and 2 stage errors, got %+v", st)
	}
}

// TestBatchDuplicateWorkerFault checks a group whose pool task dies
// never hangs the batch: A and its engine twin are one group, and a
// fault at its dispatch gives each of them a synthesized error result —
// its prepared result, normalized spec and key included — while B's
// group completes.
func TestBatchDuplicateWorkerFault(t *testing.T) {
	for _, kind := range []string{"error", "panic"} {
		t.Run(kind, func(t *testing.T) {
			// On one worker the dispatch ordinals follow the group order, and
			// shared-baseline scenarios dispatch nothing on nested pools: the
			// batch's dispatches are A's group task, then B's.
			plan := faults.New(23)
			if kind == "error" {
				plan.ErrorAt(faults.SiteWorker, 0)
			} else {
				plan.PanicAt(faults.SiteWorker, 0)
			}
			restore := faults.Activate(plan)
			defer restore()

			a := Scenario{Workload: "jpeg1-only", Scale: "small", Seed: 3, Partition: PartitionShared}
			twin := a
			twin.ExecEngine = "word"
			b := a
			b.Seed = 4
			results, errs, done := NewRunner(1).RunBatchStream(context.Background(), []Scenario{a, twin, b}, nil)
			await(t, done, "the batch")
			restore()

			if hits := plan.Hits(faults.SiteWorker); hits != 2 {
				t.Fatalf("want 2 worker dispatches, got %d", hits)
			}
			for i, r := range results[:2] {
				if r == nil || !strings.Contains(r.Error, "parallel.worker") || errs[i] == nil {
					t.Fatalf("slot %d: want a synthesized error naming parallel.worker, got %+v (err %v)", i, r, errs[i])
				}
				if r.Key == "" || r.Key != results[0].Key || r.Scenario.ExecEngine != "merged" {
					t.Errorf("slot %d: a synthesized result must be the prepared one, got %+v", i, r)
				}
			}
			if r := results[2]; r == nil || r.Error != "" || r.Shared == nil {
				t.Errorf("B must complete, got %+v", r)
			}
		})
	}
}

// TestBatchDuplicatesDispatchOncePerKey checks a batch is its distinct
// keys: with A warm, [A, B, B's exec twin, A renamed, C, B] dispatches
// one pool task per missing key (shared-baseline scenarios dispatch no
// nested pool tasks, so the worker site counts exactly those), runs one
// shared run per missing key, serves A, its renamed copy and B's two
// duplicates as result hits, and gives every slot the result of its
// spec run alone.
func TestBatchDuplicatesDispatchOncePerKey(t *testing.T) {
	shared := func(seed uint64) Scenario {
		return Scenario{Workload: "jpeg1-only", Scale: "small", Seed: seed, Partition: PartitionShared}
	}
	a, b, c := shared(0), shared(1), shared(2)
	twin := b
	twin.ExecEngine = "word"
	renamed := a
	renamed.Name = "renamed"
	batch := []Scenario{a, b, twin, renamed, c, b}

	rn := NewRunner(2)
	if _, err := rn.Run(a); err != nil {
		t.Fatal(err)
	}
	plan := faults.New(29)
	restore := faults.Activate(plan)
	before := rn.Stats()
	results := rn.RunBatch(batch)
	st := rn.Stats().Delta(before)
	restore()

	if n := plan.Hits(faults.SiteWorker); n != 2 {
		t.Errorf("want one pool task per missing key (2), got %d dispatches", n)
	}
	if st.RunRuns != 2 || st.MemoHits != 4 {
		t.Errorf("want 2 shared runs and 4 result hits, got %+v", st)
	}
	for i, s := range batch {
		alone, err := NewRunner(1).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(results[i])
		want, _ := json.Marshal(alone)
		if string(got) != string(want) {
			t.Errorf("result %d differs from the spec run alone:\n%s\nvs\n%s", i, got, want)
		}
	}
}
