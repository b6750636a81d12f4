package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// registerFlaky registers a workload whose factory fails the first
// `failures` times and then behaves like jpeg1-only. Returns a counter
// of successful factory builds.
func registerFlaky(t *testing.T, name string, failures int32) *int32 {
	t.Helper()
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	var remaining = failures
	var builds int32
	err := workloads.Register(name, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			if atomic.AddInt32(&remaining, -1) >= 0 {
				return nil, errors.New("transient build failure")
			}
			atomic.AddInt32(&builds, 1)
			return inner()
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	return &builds
}

// TestStageErrorNotMemoized is the regression test for the memo
// error-poisoning bug: a transient stage failure (here a workload
// factory that fails once, then succeeds) must NOT be cached under the
// stage memo — the next request on a long-lived shared runner retries
// instead of replaying the stale error forever.
func TestStageErrorNotMemoized(t *testing.T) {
	// A fresh workload name per run, so the test repeats under -count=N.
	name := fmt.Sprintf("flaky-once-%d", gateSeq.Add(1))
	registerFlaky(t, name, 1)
	rn := NewRunner(1)
	spec := Scenario{Workload: name, Scale: "small", Runs: 1, Partition: PartitionProfile}

	if _, err := rn.Run(spec); err == nil || !strings.Contains(err.Error(), "transient build failure") {
		t.Fatalf("first run must surface the transient failure, got %v", err)
	}
	res, err := rn.Run(spec)
	if err != nil {
		t.Fatalf("second run must retry after the transient failure, not replay the memoized error: %v", err)
	}
	if len(res.Curves) == 0 {
		t.Fatal("retried run produced no curves")
	}

	st := rn.Stats()
	// Per attempt the trace stage fails first and the profile stage
	// waiting on it fails with it: 2 failed + 2 retried stage runs.
	if st.StageRuns != 4 {
		t.Errorf("want 4 stage runs (2 failed + 2 retried), got %+v", st)
	}
	if st.StageErrors != 2 {
		t.Errorf("want 2 evicted error stages, got %+v", st)
	}
	if st.MemoHits != 0 {
		t.Errorf("a failed stage must not serve memo hits, got %+v", st)
	}

	// The healthy result, in turn, IS memoized.
	if _, err := rn.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st := rn.Stats(); st.StageRuns != 4 || st.MemoHits != 1 {
		t.Errorf("healthy result must be served from the memo: %+v", st)
	}
}

// TestRunBatchContextCancel checks a canceled context skips scenarios
// not yet started: their result slots stay nil and no simulation runs
// for them.
func TestRunBatchContextCancel(t *testing.T) {
	name := fmt.Sprintf("counted-ctx-%d", gateSeq.Add(1))
	builds := registerFlaky(t, name, 0)
	rn := NewRunner(1)
	spec := Scenario{Workload: name, Scale: "small", Runs: 1, Partition: PartitionProfile}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := rn.RunBatchContext(ctx, []Scenario{spec, spec, spec})
	for i, r := range results {
		if r != nil {
			t.Errorf("result %d must be nil under a canceled context, got %+v", i, r)
		}
	}
	if n := atomic.LoadInt32(builds); n != 0 {
		t.Errorf("canceled batch must not build workloads, built %d", n)
	}
	if st := rn.Stats(); st.StageRuns != 0 {
		t.Errorf("canceled batch must not run stages: %+v", st)
	}
}

// TestRunContextCancelFailsStages checks a context canceled mid-batch
// surfaces as a stage failure that is not memoized (later runs with a
// live context succeed).
func TestRunContextCancelFailsStages(t *testing.T) {
	rn := NewRunner(1)
	spec := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionProfile}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rn.RunContext(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Error == "" {
		t.Error("canceled run must record its error in the result document")
	}
	// A later request with a live context must not see a poisoned memo.
	if _, err := rn.Run(spec); err != nil {
		t.Fatalf("run after cancellation failed: %v", err)
	}
}
