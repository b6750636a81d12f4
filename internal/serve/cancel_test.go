package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// cancelWorkloads are two instrumented wrappers around jpeg1-only,
// registered afresh for each run of the test: blocking, whose first
// factory call signals started and blocks until release closes (so the
// test controls when the first pipeline stage finishes; later pipeline
// stages build the workload again and pass through), and counted, which
// counts its builds (so the test can prove queued scenarios never ran).
type cancelWorkloads struct {
	blocking, counted string
	started           chan struct{}
	release           chan struct{}
	builds            atomic.Int32
}

// registerCancelWorkloads registers a fresh pair of cancelWorkloads
// under process-unique names.
func registerCancelWorkloads(t *testing.T) *cancelWorkloads {
	t.Helper()
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	n := testSeq.Add(1)
	cw := &cancelWorkloads{
		blocking: fmt.Sprintf("serve-test-blocking-%d", n),
		counted:  fmt.Sprintf("serve-test-counted-%d", n),
		started:  make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
	var blocked atomic.Bool
	workloads.MustRegister(cw.blocking, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			if blocked.CompareAndSwap(false, true) {
				cw.started <- struct{}{}
				<-cw.release
			}
			return inner()
		}
		return w
	})
	workloads.MustRegister(cw.counted, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			cw.builds.Add(1)
			return inner()
		}
		return w
	})
	return cw
}

// TestBatchClientDisconnectCancelsQueuedWork is the regression test for
// the burn-after-disconnect bug: /v1/batch must thread the request
// context all the way into pipeline execution, so a client that drops
// mid-stream cancels BOTH the queued scenarios and the remaining stages
// of the scenario already in flight — only the stage that was actually
// simulating when the client vanished completes (into the shared memo,
// so that work is kept). The dropped connection is modeled by canceling
// the request's context — exactly the signal net/http delivers on a
// real disconnect — which keeps the test deterministic.
func TestBatchClientDisconnectCancelsQueuedWork(t *testing.T) {
	cw := registerCancelWorkloads(t)
	cfg := experiments.Small()
	cfg.ProfileRuns = 1
	cfg.Workers = 1 // single worker: scenario 0 blocks, 1 and 2 stay queued
	rn := scenario.NewRunner(cfg.Workers)
	srv := New(cfg, rn)

	// Scenario 0 is a full study: with one worker its pipeline runs the
	// shared baseline first (the factory blocks inside that run's trace
	// capture), then the profile+optimize leg, then the partitioned run.
	body := fmt.Sprintf(`{"scenarios":[
		{"workload":%q,"scale":"small","runs":1},
		{"workload":%q,"scale":"small","runs":1,"partition":"profile"},
		{"workload":%q,"scale":"small","runs":1,"seed":7,"partition":"profile"}
	]}`, cw.blocking, cw.counted, cw.counted)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()

	// Wait until scenario 0 is inside its (blocked) shared run, then
	// drop the client and let the in-flight stage finish.
	select {
	case <-cw.started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking workload never started")
	}
	cancel()
	close(cw.release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after the disconnect")
	}

	if n := cw.builds.Load(); n != 0 {
		t.Errorf("queued scenarios ran after the client disconnected: %d builds", n)
	}
	st := rn.Stats()
	if st.RunRuns != 1 {
		t.Errorf("only the in-flight shared run may complete (no partitioned run into a dead socket), got %+v", st)
	}
	if st.ProfileRuns != 0 || st.OptimizeRuns != 0 {
		t.Errorf("stages after the disconnect must be canceled, not simulated: %+v", st)
	}

	// The in-flight stage completed into the shared memo: a later
	// request for the same scenario reuses it and only simulates the
	// stages the disconnect canceled. 3 memo hits: the shared run plus
	// the captured trace served to the optimize and partitioned-run
	// closures. The runs: 1 profile reads only the shared repetition
	// the shared run left resident, so it looks up no trace.
	res, err := rn.Run(scenario.Scenario{Workload: cw.blocking, Scale: "small", Runs: 1})
	if err != nil || res.Shared == nil || res.Partitioned == nil {
		t.Fatalf("later run of the interrupted scenario failed: %v", err)
	}
	if st := rn.Stats(); st.MemoHits != 3 || st.TraceHits != 2 || st.RunRuns != 2 {
		t.Errorf("in-flight work must be reused, not wasted: %+v", st)
	}
}

// TestRunContextCanceledError double-checks the cancellation error shape
// the serve layer relies on.
func TestRunContextCanceledError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rn := scenario.NewRunner(1)
	_, err := rn.RunContext(ctx, scenario.Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: scenario.PartitionProfile})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
