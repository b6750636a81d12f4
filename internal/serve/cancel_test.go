package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

var registerBlockingOnce sync.Once

var (
	// blockStarted is signaled when the blocking workload's factory is
	// first entered; blockRelease lets it proceed. Only the first factory
	// call blocks — later pipeline stages build the workload again and
	// must pass through.
	blockStarted       = make(chan struct{}, 8)
	blockRelease       = make(chan struct{})
	blockFirst   int32 = 1
	// countedBuilds counts how often the counted workload was built.
	countedBuilds int32
)

// registerCancelWorkloads registers two instrumented wrappers around
// jpeg1-only: one whose first factory call blocks until released (so
// the test controls when the first pipeline stage finishes), and one
// that counts its builds (so the test can prove queued scenarios never
// ran).
func registerCancelWorkloads(t *testing.T) {
	t.Helper()
	registerBlockingOnce.Do(func() {
		base, ok := workloads.Lookup("jpeg1-only")
		if !ok {
			t.Fatal("jpeg1-only not registered")
		}
		workloads.MustRegister("serve-test-blocking", func(bc workloads.BuildConfig) core.Workload {
			w := base(bc)
			inner := w.Factory
			w.Factory = func() (*core.App, error) {
				if atomic.CompareAndSwapInt32(&blockFirst, 1, 0) {
					blockStarted <- struct{}{}
					<-blockRelease
				}
				return inner()
			}
			return w
		})
		workloads.MustRegister("serve-test-counted", func(bc workloads.BuildConfig) core.Workload {
			w := base(bc)
			inner := w.Factory
			w.Factory = func() (*core.App, error) {
				atomic.AddInt32(&countedBuilds, 1)
				return inner()
			}
			return w
		})
	})
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
	registerCancelWorkloads(t)
	cfg := experiments.Small()
	cfg.ProfileRuns = 1
	cfg.Workers = 1 // single worker: scenario 0 blocks, 1 and 2 stay queued
	rn := scenario.NewRunner(cfg.Workers)
	srv := New(cfg, rn)

	// Scenario 0 is a full study: with one worker its pipeline runs the
	// shared baseline first (the factory blocks inside that run's trace
	// capture), then the profile+optimize leg, then the partitioned run.
	const body = `{"scenarios":[
		{"workload":"serve-test-blocking","scale":"small","runs":1},
		{"workload":"serve-test-counted","scale":"small","runs":1,"partition":"profile"},
		{"workload":"serve-test-counted","scale":"small","runs":1,"seed":7,"partition":"profile"}
	]}`
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
	case <-blockStarted:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking workload never started")
	}
	cancel()
	close(blockRelease)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after the disconnect")
	}

	if n := atomic.LoadInt32(&countedBuilds); n != 0 {
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
	res, err := rn.Run(scenario.Scenario{Workload: "serve-test-blocking", Scale: "small", Runs: 1})
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
