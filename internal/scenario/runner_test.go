package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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
