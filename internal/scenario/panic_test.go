package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// registerPanicking registers a workload whose factory panics the first
// `panics` times it is built, then behaves like jpeg1-only — the
// build-panic vector of the fault suite. It returns the workload's
// name, prefix plus a process-unique number, so the tests repeat under
// -count=N.
func registerPanicking(t *testing.T, prefix string, panics int) string {
	t.Helper()
	name := fmt.Sprintf("%s-%d", prefix, gateSeq.Add(1))
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	remaining := panics
	err := workloads.Register(name, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			if remaining > 0 {
				remaining--
				panic("workload build exploded")
			}
			return inner()
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// registerBadPlatform registers a workload whose factory trips a
// platform-construction panic that no spec-level validation can catch:
// a non-power-of-two address-space alignment, exactly the class of
// config error that panics by design deep inside the memory model. It
// returns the workload's name, prefix plus a process-unique number.
func registerBadPlatform(t *testing.T, prefix string) string {
	t.Helper()
	name := fmt.Sprintf("%s-%d", prefix, gateSeq.Add(1))
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	err := workloads.Register(name, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		w.Factory = func() (*core.App, error) {
			as := mem.NewAddressSpace()
			as.SetAlign(3) // panics: not a power of two
			return nil, nil
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// TestStagePanicIsContainedAndEvicted is the heart of the panic
// containment contract: a stage that panics surfaces as a structured
// *StagePanicError (never an unwound goroutine), the memo entry is
// evicted (a retry re-runs and succeeds), and the panic is counted.
func TestStagePanicIsContainedAndEvicted(t *testing.T) {
	name := registerPanicking(t, "panic-once", 1)
	rn := NewRunner(1)
	spec := Scenario{Workload: name, Scale: "small", Runs: 1, Partition: PartitionProfile}

	res, err := rn.Run(spec)
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *StagePanicError, got %v", err)
	}
	// The workload factory's first execution is the trace capture, so
	// the build panic is attributed to the trace stage; the profile
	// stage observes it as an ordinary nested-stage error.
	if pe.Stage != "trace" || pe.Value != "workload build exploded" {
		t.Errorf("bad panic error: %+v", pe)
	}
	if pe.Stack == "" {
		t.Error("panic error must carry the stack")
	}
	if res == nil || res.Error == "" || !strings.Contains(res.Error, "panic in trace stage") {
		t.Errorf("panic must be embedded in the result document, got %+v", res)
	}

	// The panicked stage must not be memoized: the retry re-runs and
	// succeeds.
	res, err = rn.Run(spec)
	if err != nil {
		t.Fatalf("retry after a contained panic must succeed, got %v", err)
	}
	if len(res.Curves) == 0 {
		t.Error("retried run produced no curves")
	}
	st := rn.Stats()
	if st.StagePanics != 1 {
		t.Errorf("want 1 counted stage panic, got %+v", st)
	}
	// Both the panicked trace stage and the profile stage that was
	// waiting on it are evicted for retry.
	if st.StageErrors != 2 {
		t.Errorf("a panicked stage must be evicted like an errored one, got %+v", st)
	}
}

// TestPlatformPanicPastSpecChecks checks a platform-construction panic
// that spec validation cannot catch (it fires inside the workload
// factory, deep in the memory model) still comes back as a structured
// per-scenario error. The factory first runs in the trace capture the
// shared run replays, so the panic is attributed to the trace stage.
// TestNestedWorkerPanicIsContainedAndEvicted covers a panic that
// crosses a worker boundary inside a stage.
func TestPlatformPanicPastSpecChecks(t *testing.T) {
	name := registerBadPlatform(t, "bad-align")
	rn := NewRunner(2)
	spec := Scenario{Workload: name, Scale: "small", Partition: PartitionShared}

	res, err := rn.RunContext(context.Background(), spec)
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *StagePanicError, got %v", err)
	}
	if pe.Stage != "trace" {
		t.Errorf("panic must be attributed to the trace stage, got %q", pe.Stage)
	}
	if !strings.Contains(res.Error, "panic in trace stage") {
		t.Errorf("result must embed the structured panic, got %q", res.Error)
	}
	if st := rn.Stats(); st.StagePanics == 0 {
		t.Errorf("platform panic must be counted: %+v", st)
	}
}

// TestNestedWorkerPanicIsContainedAndEvicted checks a panic inside a
// stage's own fan-out: a runs: 2 profile stage profiles its repetitions
// on the worker pool, whose recovery hands the stage a
// *parallel.PanicError rather than a panic. The stage must report it as
// a *StagePanicError of its own kind carrying the injected value, evict
// its entry like any failure, and succeed on retry over the trace it
// already captured.
func TestNestedWorkerPanicIsContainedAndEvicted(t *testing.T) {
	const seed = 23
	rn := NewRunner(2)
	spec := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 2, Partition: PartitionProfile}
	keys, err := spec.StageKeys()
	if err != nil {
		t.Fatal(err)
	}

	// The profiling repetitions are the scenario's only worker-pool
	// dispatches: Run serves a single scenario on the caller's goroutine.
	restore := faults.Activate(faults.New(seed).PanicAt(faults.SiteWorker, 0))
	_, err = rn.Run(spec)
	restore()
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *StagePanicError, got %v", err)
	}
	want := faults.PanicValue{Site: faults.SiteWorker, Ordinal: 0, Seed: seed}
	if pe.Stage != "profile" || pe.Key != keys["profile"] || pe.Value != want {
		t.Errorf("the worker panic must be attributed to the profile stage with the injected value, got stage %q key %q value %v", pe.Stage, pe.Key, pe.Value)
	}
	if pe.Stack == "" {
		t.Error("panic error must carry the worker's stack")
	}
	if rn.memo.resident(keys["profile"]) != nil {
		t.Error("the panicked profile stage must be evicted")
	}
	if st := rn.Stats(); st.StagePanics != 1 || st.StageErrors != 1 {
		t.Errorf("want 1 counted panic evicting 1 stage, got %+v", st)
	}

	res, err := rn.Run(spec)
	if err != nil {
		t.Fatalf("retry after a contained worker panic must succeed, got %v", err)
	}
	if len(res.Curves) == 0 {
		t.Error("retried run produced no curves")
	}
	if st := rn.Stats(); st.ProfileRuns != 2 || st.TraceRuns != 1 {
		t.Errorf("the retry must re-profile over the resident trace, got %+v", st)
	}
}

// TestBatchIsolatesPanickingScenario checks one panicking scenario in a
// batch yields exactly one error result; its neighbors complete
// normally, in order.
func TestBatchIsolatesPanickingScenario(t *testing.T) {
	name := registerPanicking(t, "panic-mid", 1)
	rn := NewRunner(2)
	good := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionProfile}
	bad := Scenario{Workload: name, Scale: "small", Runs: 1, Partition: PartitionProfile}

	results := rn.RunBatch([]Scenario{good, bad, good})
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	for i, want := range []bool{false, true, false} {
		if results[i] == nil {
			t.Fatalf("result %d is nil", i)
		}
		if got := results[i].Error != ""; got != want {
			t.Errorf("result %d: error=%q, want failure=%v", i, results[i].Error, want)
		}
	}
	if !strings.Contains(results[1].Error, "panic in trace stage") {
		t.Errorf("panicking scenario must carry the structured panic, got %q", results[1].Error)
	}
	if len(results[0].Curves) == 0 || len(results[2].Curves) == 0 {
		t.Error("neighbors of a panicking scenario must complete")
	}
}

// TestWorkerDispatchFaultSynthesizesResult checks the batch stream
// survives a fault at the worker-dispatch boundary itself (before the
// scenario's own containment even starts): the dead slot becomes a
// synthesized error result, the walk does not deadlock, and the other
// scenario — another content key, so another pool task — streams
// normally. TestBatchDuplicateWorkerFault covers a dead task's
// duplicates.
func TestWorkerDispatchFaultSynthesizesResult(t *testing.T) {
	for _, kind := range []string{"error", "panic"} {
		t.Run(kind, func(t *testing.T) {
			plan := faults.New(11)
			if kind == "error" {
				plan.ErrorAt(faults.SiteWorker, 0)
			} else {
				plan.PanicAt(faults.SiteWorker, 0)
			}
			restore := faults.Activate(plan)
			defer restore()

			rn := NewRunner(1) // sequential: the first dispatch is the first key's
			spec := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionProfile}
			other := spec
			other.Seed = 1
			var seen []int
			results, errs, done := rn.RunBatchStream(context.Background(), []Scenario{spec, other},
				func(i int, res *Result) bool {
					seen = append(seen, i)
					return true
				})
			<-done
			restore()

			if len(seen) != 2 {
				t.Fatalf("walk must visit both slots in order, saw %v", seen)
			}
			if results[0] == nil || results[0].Error == "" {
				t.Fatalf("faulted dispatch must synthesize an error result, got %+v", results[0])
			}
			if errs[0] == nil {
				t.Error("faulted dispatch must record an error")
			}
			if results[1] == nil || results[1].Error != "" {
				t.Errorf("the surviving scenario must complete, got %+v", results[1])
			}
		})
	}
}

// TestInjectedStageFaultsAreDeterministic checks the seeded plan fires
// at exact stage ordinals: with the first profile execution armed, the
// first distinct spec fails with the injected error and the second
// succeeds — and after restore, the failed spec retries cleanly off the
// evicted memo entry.
func TestInjectedStageFaultsAreDeterministic(t *testing.T) {
	plan := faults.New(17).ErrorAt(faults.SiteStage+"profile", 0)
	restore := faults.Activate(plan)

	rn := NewRunner(1)
	a := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Seed: 100, Partition: PartitionProfile}
	b := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Seed: 101, Partition: PartitionProfile}

	_, errA := rn.Run(a)
	var ie *faults.InjectedError
	if !errors.As(errA, &ie) || ie.Ordinal != 0 {
		t.Fatalf("first profile execution must carry the injected error, got %v", errA)
	}
	if _, err := rn.Run(b); err != nil {
		t.Fatalf("unarmed ordinal must succeed, got %v", err)
	}
	restore()

	if _, err := rn.Run(a); err != nil {
		t.Fatalf("injected error must be evicted, not memoized: %v", err)
	}
	if st := rn.Stats(); st.StageErrors != 1 {
		t.Errorf("want exactly 1 evicted stage error, got %+v", st)
	}
}
