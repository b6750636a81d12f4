package scenario

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallSpec is a cheap profile-only scenario for runner tests.
func smallSpec() Scenario {
	return Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionProfile}
}

// TestRunnerMemoizesIdenticalSpecs checks the batch contract: identical
// specs in a batch simulate once and return identical documents.
func TestRunnerMemoizesIdenticalSpecs(t *testing.T) {
	rn := NewRunner(2)
	a := smallSpec()
	b := smallSpec()
	b.Name = "same-but-named" // names must not defeat memoization
	results := rn.RunBatch([]Scenario{a, b, a})
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("result %d failed: %s", i, r.Error)
		}
	}
	if results[0].Key != results[1].Key || results[1].Key != results[2].Key {
		t.Errorf("keys differ: %s %s %s", results[0].Key, results[1].Key, results[2].Key)
	}
	st := rn.Stats()
	// 2 runs: the trace capture and the profile stage it feeds.
	if st.StageRuns != 2 {
		t.Errorf("identical specs must simulate once, got %d stage runs (stats %+v)", st.StageRuns, st)
	}
	if st.MemoHits != 2 {
		t.Errorf("want 2 memo hits, got %+v", st)
	}
	c0, _ := json.Marshal(results[0].Curves)
	c2, _ := json.Marshal(results[2].Curves)
	if string(c0) != string(c2) {
		t.Error("memoized results differ from fresh ones")
	}
}

// TestRunnerWorkerCountInvariance checks results are bit-identical at
// any worker-pool bound. At runs: 3 the profile stage simulates its
// repetitions 1 and 2 concurrently beside the shared one, so under
// -race this is the data-race check for that fan-out.
func TestRunnerWorkerCountInvariance(t *testing.T) {
	for _, runs := range []int{1, 3} {
		spec := smallSpec()
		spec.Runs = runs
		seq, err := NewRunner(1).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewRunner(4).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(seq)
		b, _ := json.Marshal(par)
		if string(a) != string(b) {
			t.Errorf("runs %d: worker count changed the result document\n%s\nvs\n%s", runs, a, b)
		}
	}
}

// TestSimulationsNeverExceedWorkers runs three batches at once on one
// runner, each over a third of six optimized 2jpeg+canny specs at
// runs: 3 (the pairs share traces and profiles across batches), and
// samples every goroutine's stack while they run: no more than workers
// goroutines may be inside a simulation (core.RunApp) or a trace
// capture (tracefile.CaptureApp) at once, whoever called the runner.
func TestSimulationsNeverExceedWorkers(t *testing.T) {
	var specs []Scenario
	for seed := uint64(100); seed <= 102; seed++ {
		for _, migration := range []bool{false, true} {
			specs = append(specs, Scenario{Workload: "2jpeg+canny", Scale: "small", Seed: seed, Runs: 3, Migration: migration, Partition: PartitionOptimized})
		}
	}
	for _, workers := range []int{1, 2} {
		rn := NewRunner(workers)
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(batch []Scenario) {
				defer wg.Done()
				for _, res := range rn.RunBatch(batch) {
					if res.Error != "" {
						t.Error(res.Error)
					}
				}
			}([]Scenario{specs[c], specs[c+3]})
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		peak := 0
		buf := make([]byte, 1<<20)
		for running := true; running; time.Sleep(time.Millisecond) {
			select {
			case <-done:
				running = false
			default:
			}
			n := runtime.Stack(buf, true)
			for n == len(buf) {
				buf = make([]byte, 2*len(buf))
				n = runtime.Stack(buf, true)
			}
			inside := 0
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				if strings.Contains(g, "\nrepro/internal/core.RunApp(") || strings.Contains(g, "\nrepro/internal/tracefile.CaptureApp(") {
					inside++
				}
			}
			peak = max(peak, inside)
		}
		t.Logf("workers %d: at most %d simulations and captures at once", workers, peak)
		if peak > workers {
			t.Errorf("workers %d: %d simulations and captures ran at once", workers, peak)
		}
		if peak == 0 {
			t.Errorf("workers %d: the sampler saw no simulation", workers)
		}
	}
}

// TestRunBatchEmbedsErrors checks a failing spec doesn't fail the batch
// and keeps its slot, in order.
func TestRunBatchEmbedsErrors(t *testing.T) {
	rn := NewRunner(1)
	bad := Scenario{Workload: "no-such-workload"}
	results := rn.RunBatch([]Scenario{smallSpec(), bad})
	if results[0].Error != "" {
		t.Errorf("good spec failed: %s", results[0].Error)
	}
	if results[1].Error == "" || !strings.Contains(results[1].Error, "unknown workload") {
		t.Errorf("bad spec must carry its validation error, got %q", results[1].Error)
	}
	if results[1].Shared != nil || results[1].Curves != nil {
		t.Error("failed result must carry no sections")
	}
}

// TestSeedChangesWorkload checks the seed knob reaches the synthetic
// inputs: different seeds must produce different profiles.
func TestSeedChangesWorkload(t *testing.T) {
	rn := NewRunner(2)
	a := smallSpec()
	b := smallSpec()
	b.Seed = 9
	ra, err := rn.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rn.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Key == rb.Key {
		t.Fatal("seed must be part of the content address")
	}
	ca, _ := json.Marshal(ra.Curves)
	cb, _ := json.Marshal(rb.Curves)
	if string(ca) == string(cb) {
		t.Error("different seeds produced identical miss curves")
	}
}

// TestStatsCountersListEveryField checks the one counter list Stats and
// Delta walk: it holds every uint64 field of Stats exactly once, and
// Delta subtracts each of them.
func TestStatsCountersListEveryField(t *testing.T) {
	var after, before Stats
	listed := map[*uint64]int{}
	for _, p := range after.counters() {
		listed[p]++
	}
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(&before).Elem()
	fields := 0
	for i := range a.NumField() {
		if a.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		fields++
		if n := listed[a.Field(i).Addr().Interface().(*uint64)]; n != 1 {
			t.Errorf("%s is listed %d times, want once", a.Type().Field(i).Name, n)
		}
		a.Field(i).SetUint(uint64(100 + 3*i))
		b.Field(i).SetUint(uint64(i))
	}
	if len(listed) != fields {
		t.Errorf("the list holds %d counters, Stats has %d", len(listed), fields)
	}
	d := reflect.ValueOf(after.Delta(before))
	for i := range d.NumField() {
		if d.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if got, want := d.Field(i).Uint(), uint64(100+2*i); got != want {
			t.Errorf("Delta's %s = %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
}
