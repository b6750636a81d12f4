package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// allHitSpecs is a warm batch's specs: a profile scenario, an optimized
// one, and a renamed copy of the optimized one.
func allHitSpecs() []Scenario {
	renamed := optimizedSpec()
	renamed.Name = "renamed"
	return []Scenario{profileOf("jpeg1-only"), optimizedSpec(), renamed}
}

// docs marshals each result, nil slots included.
func docs(t *testing.T, results []*Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestMemoAllHitBatchSkipsPool checks a batch whose every scenario is a
// result hit is served on the caller's goroutine: no pool task runs (the
// parallel.worker fault site, armed at every ordinal, is never hit), the
// workers-finished channel is closed on return, and the results, their
// order, the observe calls and the counters are what the pool path
// gives — including when observe stops the walk early. A canceled ctx
// leaves every slot unstarted, and a batch with one miss serves its hits
// without the pool too, dispatching only the miss.
func TestMemoAllHitBatchSkipsPool(t *testing.T) {
	rn := NewRunner(2)
	specs := allHitSpecs()
	want := docs(t, rn.RunBatch(specs)) // cold, through the pool
	const hits = 1 + 3 + 3              // profile, then two optimized scenarios

	run := func(ctx context.Context, stopAfter int) ([]*Result, []error, []int, Stats) {
		t.Helper()
		plan := faults.New(1).ErrorAt(faults.SiteWorker, 0, 1, 2, 3, 4, 5)
		restore := faults.Activate(plan)
		defer restore()
		before := rn.Stats()
		var seen []int
		results, errs, done := rn.RunBatchStream(ctx, specs, func(i int, _ *Result) bool {
			seen = append(seen, i)
			return len(seen) < stopAfter
		})
		if ctx.Err() == nil {
			select {
			case <-done:
			default:
				t.Error("an all-hit batch must return with its workers finished")
			}
			if n := plan.Hits(faults.SiteWorker); n != 0 {
				t.Errorf("an all-hit batch dispatched %d pool tasks", n)
			}
		}
		<-done
		return results, errs, seen, rn.Stats().Delta(before)
	}

	results, errs, seen, st := run(context.Background(), len(specs))
	if got := docs(t, results); !slices.Equal(got, want) {
		t.Errorf("all-hit results differ from the cold ones:\n%v\nvs\n%v", got, want)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("slot %d: %v", i, err)
		}
	}
	if len(seen) != len(specs) || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("observe saw %v, want every slot in order", seen)
	}
	if st != (Stats{MemoHits: hits}) {
		t.Errorf("all-hit batch counters %+v, want %d memo hits only", st, hits)
	}

	// observe returning false ends the walk; the batch still completes.
	results, _, seen, st = run(context.Background(), 1)
	if len(seen) != 1 || !slices.Equal(docs(t, results), want) || st != (Stats{MemoHits: hits}) {
		t.Errorf("a walk stopped after one slot: saw %v, counters %+v", seen, st)
	}

	// A canceled ctx leaves every slot unstarted, as on the pool.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, seen, st = run(ctx, len(specs))
	for i, r := range results {
		if r != nil {
			t.Errorf("slot %d ran under a canceled ctx", i)
		}
	}
	if len(seen) != 0 || st != (Stats{}) {
		t.Errorf("canceled batch: saw %v, counters %+v", seen, st)
	}

	// A batch with one miss serves its hits without the pool and
	// dispatches only the miss: its group task and its one profiling
	// repetition.
	miss := append(allHitSpecs(), profileOf("jpeg1-only"))
	miss[3].Seed = 5
	plan := faults.New(2)
	restore := faults.Activate(plan)
	before := rn.Stats()
	got := rn.RunBatch(miss)
	st = rn.Stats().Delta(before)
	restore()
	if n := plan.Hits(faults.SiteWorker); n != 2 {
		t.Errorf("a batch with one miss dispatched %d pool tasks, want 2", n)
	}
	if st.MemoHits != hits {
		t.Errorf("a batch with one miss counted %d memo hits, want its %d", st.MemoHits, hits)
	}
	if !slices.Equal(docs(t, got[:3]), want) || got[3].Error != "" {
		t.Errorf("the batch with a miss differs: %v", docs(t, got))
	}
}

// TestMemoPreparedStreamLeavesPreparedUntouched runs one prepared list
// cold, warm and concurrently: every run matches RunBatchStream's
// results, and the prepared results are never written. A list with a
// scenario that failed to prepare gives that slot its Prepare error and
// error result, as RunBatchStream does, and runs the rest.
func TestMemoPreparedStreamLeavesPreparedUntouched(t *testing.T) {
	rn := NewRunner(2)
	prepare := func(specs []Scenario) ([]*Result, []error) {
		prepared := make([]*Result, len(specs))
		errs := make([]error, len(specs))
		for i, s := range specs {
			prepared[i], errs[i] = rn.Prepare(s)
		}
		return prepared, errs
	}
	specs := allHitSpecs()
	prepared, perrs := prepare(specs)
	for i, err := range perrs {
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	snapshot := docs(t, prepared)
	want := docs(t, NewRunner(1).RunBatch(specs))

	check := func(what string) {
		results, errs, done := rn.RunPreparedStream(context.Background(), prepared, nil, nil)
		<-done
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: slot %d: %v", what, i, err)
			}
		}
		if got := docs(t, results); !slices.Equal(got, want) {
			t.Errorf("%s: prepared stream results differ from the batch's:\n%v\nvs\n%v", what, got, want)
		}
		for i, r := range results {
			if r == prepared[i] || r.Scenario.Platform != prepared[i].Scenario.Platform {
				t.Errorf("%s: slot %d must be a fresh result sharing the prepared spec", what, i)
			}
		}
	}
	check("cold")
	check("warm")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check("concurrent")
		}()
	}
	wg.Wait()
	if got := docs(t, prepared); !slices.Equal(got, snapshot) {
		t.Errorf("running the prepared list wrote it:\n%v\nvs\n%v", got, snapshot)
	}

	bad := append(allHitSpecs(), Scenario{Workload: "no-such-workload"})
	prepared, perrs = prepare(bad)
	if perrs[3] == nil {
		t.Fatal("an unknown workload prepared without error")
	}
	snapshot = docs(t, prepared)
	wantResults, wantErrs := rn.RunBatchContext(context.Background(), bad), make([]error, len(bad))
	wantErrs[3] = perrs[3]
	for k := 0; k < 2; k++ {
		results, errs, done := rn.RunPreparedStream(context.Background(), prepared, perrs, nil)
		<-done
		if !slices.Equal(errs, wantErrs) {
			t.Errorf("run %d: errors %v, want %v", k, errs, wantErrs)
		}
		if got, want := docs(t, results), docs(t, wantResults); !slices.Equal(got, want) {
			t.Errorf("run %d: results with a failed slot differ from the batch's:\n%v\nvs\n%v", k, got, want)
		}
	}
	if got := docs(t, prepared); !slices.Equal(got, snapshot) {
		t.Errorf("running the prepared list with a failed slot wrote it:\n%v\nvs\n%v", got, snapshot)
	}
}

// TestMemoizeSharesOneBuild checks the memory-only entry point:
// concurrent calls of a key share one build; the value is resident and
// charged its heap bytes (a 100-byte string here); a failed or
// panicking build releases every waiter with an error and caches
// nothing; lookups count nothing in Stats; and TrimMemo evicts the
// entry like any other.
func TestMemoizeSharesOneBuild(t *testing.T) {
	rn := NewRunner(1)
	before := rn.Stats()
	errBuild := errors.New("build failed")
	plan := strings.Repeat("p", 100)
	for _, outcome := range []string{"error", "panic", "ok"} {
		var builds int32
		release := make(chan struct{})
		build := func() (any, error) {
			atomic.AddInt32(&builds, 1)
			<-release
			switch outcome {
			case "error":
				return nil, errBuild
			case "panic":
				panic("build panicked")
			}
			return plan, nil
		}
		const callers = 6
		vals := make([]any, callers)
		errs := make([]error, callers)
		panicked := make([]bool, callers)
		var started, wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			started.Add(1)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer func() { panicked[c] = recover() != nil }()
				started.Done()
				vals[c], errs[c] = rn.Memoize("k", build)
			}(c)
		}
		started.Wait()
		// The pause lets the callers reach the entry while the build
		// blocks; no assertion depends on how many did. A successful build
		// is resident for any late caller, so it runs once either way; a
		// failed one is shared by the callers that waited on it, and a
		// caller arriving after it builds again. wg.Wait hangs if any
		// waiter is never released.
		time.Sleep(20 * time.Millisecond)
		close(release)
		wg.Wait()
		if n := atomic.LoadInt32(&builds); outcome == "ok" && n != 1 || n < 1 || n > callers {
			t.Errorf("%s: %d builds for %d concurrent calls", outcome, n, callers)
		}
		for c := 0; c < callers; c++ {
			switch outcome {
			case "ok":
				if vals[c] != plan || errs[c] != nil || panicked[c] {
					t.Errorf("ok: caller %d got %v, %v", c, vals[c], errs[c])
				}
			default:
				if !panicked[c] && errs[c] == nil {
					t.Errorf("%s: caller %d got %v without an error", outcome, c, vals[c])
				}
			}
		}
		if outcome != "ok" {
			if u := rn.MemoUsage(); u.Entries != 0 {
				t.Errorf("%s: a failed build left %+v", outcome, u)
			}
			checkMemo(t, rn.memo, true)
		}
	}
	if u := rn.MemoUsage(); u.Entries != 1 || u.Bytes != 100 {
		t.Errorf("after a successful build the memo holds %+v, want the one 100-byte entry", u)
	}
	if v, err := rn.Memoize("k", func() (any, error) { t.Error("a resident key rebuilt"); return nil, nil }); v != plan || err != nil {
		t.Errorf("resident lookup: %v, %v", v, err)
	}
	if st := rn.Stats().Delta(before); st != (Stats{}) {
		t.Errorf("memory-only lookups counted %+v", st)
	}
	rn.TrimMemo(0)
	if u := rn.MemoUsage(); u.Entries != 0 || u.Bytes != 0 {
		t.Errorf("TrimMemo(0) left %+v", u)
	}
	checkMemo(t, rn.memo, true)
}
