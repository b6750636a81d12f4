package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// optimizedSpec is a cheap scenario of the optimized policy: every
// stage kind, two measured runs and the concurrent legs.
func optimizedSpec() Scenario {
	return Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionOptimized}
}

// resultEntry returns the result entry resident under a content key, or
// nil.
func resultEntry(rn *Runner, key string) *Result {
	c, _ := rn.memo.get(resultKind, key).(*Result)
	return c
}

// TestMemoResultConcurrentRequests issues identical cold and warm
// requests from several goroutines at once, renamed copies among them.
// Concurrent cold misses share every stage through the stage
// single-flight, one result entry is inserted, every result equals the
// sequential one, and the counters read exactly as without result
// entries: each request of the optimized policy is three top-level
// stage lookups, a spec's computations make four nested lookups (the
// profile and the trace for the optimize stage, and the trace for the
// partitioned run and for the shared repetition that the runs: 1
// profile and the shared run both read), and the five stage runs are
// the only misses, so the memo hits are three per request less one per
// spec however the requests interleave.
func TestMemoResultConcurrentRequests(t *testing.T) {
	warm, cold := optimizedSpec(), optimizedSpec()
	cold.Seed = 3
	want := map[uint64][]byte{}
	for _, s := range []Scenario{warm, cold} {
		res, err := NewRunner(1).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s.Seed], _ = json.Marshal(res.Shared)
		p, _ := json.Marshal(res.Partitioned)
		want[s.Seed] = append(want[s.Seed], p...)
	}

	rn := NewRunner(2)
	if _, err := rn.Run(warm); err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 6, 3
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				for _, s := range []Scenario{cold, warm} {
					s.Name = fmt.Sprintf("copy-%d-%d", g, i)
					res, err := rn.RunContext(context.Background(), s)
					if err != nil {
						t.Error(err)
						return
					}
					got, _ := json.Marshal(res.Shared)
					p, _ := json.Marshal(res.Partitioned)
					if string(append(got, p...)) != string(want[s.Seed]) || res.Scenario.Name != s.Name {
						t.Errorf("goroutine %d: %s differs from the sequential result", g, s.Name)
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	requests := uint64(1 + 2*goroutines*rounds)
	if st := rn.Stats(); st.StageRuns != 10 || st.MemoHits != 3*requests-2 || st.StageErrors != 0 {
		t.Errorf("want 10 stage runs and %d memo hits, got %+v", 3*requests-2, st)
	}
	for _, s := range []Scenario{warm, cold} {
		key, _ := s.Key()
		if resultEntry(rn, key) == nil {
			t.Errorf("seed %d: no result entry after its requests", s.Seed)
		}
	}
	// Five stages, one shared repetition and one result entry per spec.
	if u := rn.MemoUsage(); u.Entries != 14 {
		t.Errorf("want 14 resident entries, got %+v", u)
	}
	checkMemo(t, rn.memo, true)
}

// TestMemoResultSkippedUnderCanceledCtx checks a canceled ctx never
// reaches a result entry: a warm scenario under a canceled ctx fails
// exactly like a cold one, and serves no hit.
func TestMemoResultSkippedUnderCanceledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Scenario{smallSpec(), optimizedSpec()} {
		_, coldErr := NewRunner(2).RunContext(ctx, s)
		rn := NewRunner(2)
		if _, err := rn.Run(s); err != nil {
			t.Fatal(err)
		}
		before := rn.Stats()
		res, err := rn.RunContext(ctx, s)
		if !errors.Is(err, context.Canceled) || err.Error() != coldErr.Error() {
			t.Errorf("%s: canceled warm run returned %v, a canceled cold run %v", s.Partition, err, coldErr)
		}
		if res.Error == "" || res.Shared != nil || res.Optimize != nil || res.Curves != nil {
			t.Errorf("%s: canceled run must carry only its error, got %+v", s.Partition, res)
		}
		if d := rn.Stats().Delta(before); d != (Stats{}) {
			t.Errorf("%s: canceled run counted %+v", s.Partition, d)
		}
	}
}

// TestMemoResultNeverCachesFailures checks failed and panicked
// scenarios leave no result entry, so the next request executes again,
// and that the first success is inserted.
func TestMemoResultNeverCachesFailures(t *testing.T) {
	// Fresh workload names per run, so the test repeats under -count=N.
	flaky := fmt.Sprintf("result-flaky-%d", gateSeq.Add(1))
	registerFlaky(t, flaky, 1)
	panicking := registerPanicking(t, "result-panic", 1)
	rn := NewRunner(1)
	for _, w := range []string{flaky, panicking} {
		s := Scenario{Workload: w, Scale: "small", Runs: 1, Partition: PartitionOptimized}
		res, err := rn.Run(s)
		if err == nil {
			t.Fatalf("%s: the first run must fail", w)
		}
		if resultEntry(rn, res.Key) != nil {
			t.Errorf("%s: a failed scenario left a result entry", w)
		}
		before := rn.Stats()
		res, err = rn.Run(s)
		if err != nil {
			t.Fatalf("%s: the retry must execute and succeed: %v", w, err)
		}
		if d := rn.Stats().Delta(before); d.StageRuns == 0 {
			t.Errorf("%s: the retry ran no stage: %+v", w, d)
		}
		if c := resultEntry(rn, res.Key); c == nil || c.Partitioned != res.Partitioned {
			t.Errorf("%s: the successful retry must insert its sections", w)
		}
	}
}
