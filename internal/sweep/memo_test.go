package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// run executes a sweep and returns its point stream and its aggregate
// as JSON, the aggregate without its runner counters (a warm sweep's
// differ from a cold one's by design), plus the counters.
func run(t *testing.T, rn *scenario.Runner, sw sweep.Sweep) ([]string, string, scenario.Stats) {
	t.Helper()
	var stream []string
	res, err := sweep.Execute(context.Background(), rn, sw, func(p sweep.PointResult) {
		b, err := json.Marshal(p.Envelope())
		if err != nil {
			t.Error(err)
		}
		stream = append(stream, string(b))
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	res.Stats = scenario.Stats{}
	agg, err := json.Marshal(res.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	return stream, string(agg), st
}

// sameRun reports the first difference between two runs' output.
func sameRun(t *testing.T, what string, stream []string, agg string, wantStream []string, wantAgg string) {
	t.Helper()
	if len(stream) != len(wantStream) {
		t.Errorf("%s: %d points streamed, want %d", what, len(stream), len(wantStream))
		return
	}
	for i := range stream {
		if stream[i] != wantStream[i] {
			t.Errorf("%s: point %d differs:\n%s\nvs\n%s", what, i, stream[i], wantStream[i])
			return
		}
	}
	if agg != wantAgg {
		t.Errorf("%s: aggregate differs:\n%s\nvs\n%s", what, agg, wantAgg)
	}
}

// builtinSweeps returns the small paper grid and every example sweep.
func builtinSweeps(t *testing.T) map[string]sweep.Sweep {
	t.Helper()
	cfg := experiments.Small()
	grid, ok := experiments.BuiltinSweep(cfg, experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	out := map[string]sweep.Sweep{"paper-grid": grid}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "sweep-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sweeps (%v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sweep.Parse(raw, func(name string) (scenario.Scenario, bool) { return experiments.BuiltinScenario(cfg, name) })
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = sw
	}
	return out
}

// TestMemoWarmSweepsMatchCold runs the small paper grid and every
// example sweep cold, then twice warm from its memoized plan: each warm
// run's point stream and aggregate are JSON-identical to the cold run's,
// its counters are those of result hits alone (three top-level stage
// lookups per optimized point, one per other point, and nothing run),
// and a plan lookup counts nothing.
func TestMemoWarmSweepsMatchCold(t *testing.T) {
	for name, sw := range builtinSweeps(t) {
		t.Run(name, func(t *testing.T) {
			rn := scenario.NewRunner(2)
			stream, agg, cold := run(t, rn, sw)
			if cold.StageRuns == 0 {
				t.Fatal("the cold sweep ran no stage")
			}
			plan, err := sweep.Prepare(rn, sw)
			if err != nil {
				t.Fatal(err)
			}
			var hits uint64
			for _, line := range stream {
				if strings.Contains(line, `"partition":"optimized"`) {
					hits += 3
				} else {
					hits++
				}
			}
			for i := 0; i < 2; i++ {
				before := rn.Stats()
				again, err := sweep.Prepare(rn, sw)
				if err != nil || again != plan {
					t.Fatalf("warm Prepare returned a different plan (%v)", err)
				}
				if st := rn.Stats().Delta(before); st != (scenario.Stats{}) {
					t.Errorf("a plan lookup counted %+v", st)
				}
				warmStream, warmAgg, warm := run(t, rn, sw)
				sameRun(t, "warm", warmStream, warmAgg, stream, agg)
				if warm != (scenario.Stats{MemoHits: hits}) {
					t.Errorf("warm counters %+v, want %d memo hits only", warm, hits)
				}
			}
		})
	}
}

// planSweep is a cheap sweep for the plan tests: two profile points.
const planSweep = `{
	"name": "plan",
	"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "profile"},
	"axes": [{"field": "seed", "values": [0, 1]}]
}`

func parse(t *testing.T, raw string) sweep.Sweep {
	t.Helper()
	sw, err := sweep.Parse([]byte(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestMemoPlanKeyCoversSweepFields changes one field of a sweep at a
// time after running it warm: the changed sweep's output on the warm
// runner equals a fresh runner's, so no change is served a stale plan.
// Each variant differs from one sweep run before it (the base, or the
// variant listed just before it) in a single field of the key, and in
// its output. Raw axis values count as written, since their text is
// their label, and as separate values: [12, 3] and [1, 23] concatenate
// alike, as do two axes named "ab" and "c" and two named "a" and "bc".
func TestMemoPlanKeyCoversSweepFields(t *testing.T) {
	rn := scenario.NewRunner(2)
	base := parse(t, planSweep)
	run(t, rn, base)
	run(t, rn, base)
	const head = `{"name": "plan", "base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "profile"}, "axes": `
	variants := []struct{ name, spec string }{
		{"base", `{"name": "plan", "base": {"workload": "jpeg1-only", "scale": "small", "runs": 2, "partition": "profile"}, "axes": [{"field": "seed", "values": [0, 1]}]}`},
		{"axis value", head + `[{"field": "seed", "values": [0, 2]}]}`},
		{"axis name", head + `[{"name": "s", "field": "seed", "values": [0, 1]}]}`},
		{"max_points", head + `[{"field": "seed", "values": [0, 1]}], "max_points": 1}`},
		{"name", `{"name": "other", "base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "profile"}, "axes": [{"field": "seed", "values": [0, 1]}]}`},
		{"pareto", head + `[{"field": "seed", "values": [0, 1]}], "pareto": [{"x": "energy", "y": "misses"}]}`},
		{"sizes spaced", head + `[{"field": "sizes", "values": [[1, 2]]}]}`},
		{"sizes tight", head + `[{"field": "sizes", "values": [[1,2]]}]}`},
		{"field seed", head + `[{"name": "x", "field": "seed", "values": [1, 2]}]}`},
		{"field runs", head + `[{"name": "x", "field": "runs", "values": [1, 2]}]}`},
		{"unzipped", head + `[{"field": "seed", "values": [0, 1]}, {"field": "runs", "values": [1, 2]}]}`},
		{"zipped", head + `[{"field": "seed", "values": [0, 1], "zip": "z"}, {"field": "runs", "values": [1, 2], "zip": "z"}]}`},
		{"range", head + `[{"field": "seed", "range": {"from": 0, "count": 2}}]}`},
		{"range from", head + `[{"field": "seed", "range": {"from": 1, "count": 2}}]}`},
		{"range count", head + `[{"field": "seed", "range": {"from": 0, "count": 3}}]}`},
		{"range step", head + `[{"field": "seed", "range": {"from": 0, "count": 2, "step": 2}}]}`},
		{"values 12,3", head + `[{"field": "seed", "values": [12, 3]}]}`},
		{"values 1,23", head + `[{"field": "seed", "values": [1, 23]}]}`},
		{"axes ab,c", head + `[{"name": "ab", "field": "seed", "values": [0]}, {"name": "c", "field": "runs", "values": [1]}]}`},
		{"axes a,bc", head + `[{"name": "a", "field": "seed", "values": [0]}, {"name": "bc", "field": "runs", "values": [1]}]}`},
	}
	for _, v := range variants {
		sw := parse(t, v.spec)
		stream, agg, _ := run(t, rn, sw)
		wantStream, wantAgg, _ := run(t, scenario.NewRunner(2), sw)
		sameRun(t, v.name, stream, agg, wantStream, wantAgg)
	}
}

// lateSeq keeps the late-registered workload names unique under
// -count=N.
var lateSeq atomic.Int64

// TestMemoPlanSkippedForUnpreparedPoint runs a sweep one of whose
// points names a workload that is not registered: the point fails as at
// execution, every point's streamed result is what a batch of the
// expanded points gives, no plan is memoized (each Prepare plans
// afresh), and once the workload is registered the next Execute
// succeeds and memoizes.
func TestMemoPlanSkippedForUnpreparedPoint(t *testing.T) {
	late := fmt.Sprintf("plan-late-%d", lateSeq.Add(1))
	sw := parse(t, `{
		"base": {"scale": "small", "runs": 1, "partition": "profile"},
		"axes": [{"field": "workload", "values": ["jpeg1-only", "`+late+`"]}]
	}`)
	points, _, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var specs []scenario.Scenario
	for _, pt := range points {
		specs = append(specs, pt.Scenario)
	}
	var want []string
	for _, r := range scenario.NewRunner(1).RunBatch(specs) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(b))
	}
	rn := scenario.NewRunner(1)
	for i := 0; i < 2; i++ {
		var got []string
		res, err := sweep.Execute(context.Background(), rn, sw, func(p sweep.PointResult) {
			b, err := json.Marshal(p.Result)
			if err != nil {
				t.Error(err)
			}
			got = append(got, string(b))
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 || !strings.Contains(res.Points[1].Error, "unknown workload") {
			t.Fatalf("run %d: want the unregistered point to fail, got %+v", i, res.Points)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("run %d: point results differ from the expanded batch's:\n%v\nvs\n%v", i, got, want)
		}
	}
	p1, err := sweep.Prepare(rn, sw)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := sweep.Prepare(rn, sw); p2 == p1 {
		t.Error("a sweep with a point that failed to prepare was memoized")
	}

	jpeg, _ := workloads.Lookup("jpeg1-only")
	if err := workloads.Register(late, jpeg); err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Execute(context.Background(), rn, sw, nil)
	if err != nil || res.Failed != 0 {
		t.Fatalf("after registering %s: %v, %+v", late, err, res.Points)
	}
	p3, _ := sweep.Prepare(rn, sw)
	if p4, _ := sweep.Prepare(rn, sw); p4 != p3 {
		t.Error("the sweep is not memoized once every point prepares")
	}
}

// TestMemoPlanConcurrentPrepareBuildsOnce starts identical Prepares and
// Executes at once on a fresh runner: they share one plan and produce
// one output. Concurrent sweeps whose expansion fails all get the error
// and leave nothing in the memo.
func TestMemoPlanConcurrentPrepareBuildsOnce(t *testing.T) {
	sw := parse(t, planSweep)
	wantStream, wantAgg, _ := run(t, scenario.NewRunner(1), sw)
	rn := scenario.NewRunner(2)
	const callers = 8
	plans := make([]*sweep.Plan, callers)
	streams := make([][]string, callers)
	aggs := make([]string, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			var err error
			if plans[c], err = sweep.Prepare(rn, sw); err != nil {
				t.Error(err)
			}
			streams[c], aggs[c], _ = run(t, rn, sw)
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 0; c < callers; c++ {
		if plans[c] != plans[0] {
			t.Errorf("caller %d got its own plan", c)
		}
		sameRun(t, fmt.Sprintf("caller %d", c), streams[c], aggs[c], wantStream, wantAgg)
	}

	// Over the default cap with no max_points: an expansion error.
	bad := parse(t, `{"base": {"workload": "jpeg1-only", "scale": "small"}, "axes": [{"field": "seed", "range": {"from": 0, "count": 5000}}]}`)
	fresh := scenario.NewRunner(1)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = sweep.Execute(context.Background(), fresh, bad, nil)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "max_points") {
			t.Errorf("caller %d: want the expansion error, got %v", c, err)
		}
	}
	if u := fresh.MemoUsage(); u.Entries != 0 {
		t.Errorf("failed builds left %+v in the memo", u)
	}
}

// putCounter counts the records written through it.
type putCounter struct {
	store.Store
	puts atomic.Uint64
}

func (s *putCounter) Put(key string, val []byte) error {
	s.puts.Add(1)
	return s.Store.Put(key, val)
}

// TestMemoPlanMemoryOnly checks a plan never reaches the durable store
// and lives in the memo like any entry: a warm sweep on a disk-backed
// runner writes no record, TrimMemo(0) evicts the plan with everything
// else, and the sweep then rebuilds it from the stage records without
// writing either.
func TestMemoPlanMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := &putCounter{Store: disk}
	rn := scenario.NewRunnerWithStore(2, store.NewResilient(d, store.ResilientOptions{}))
	records := func() int {
		recs, _ := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rec"))
		return len(recs)
	}
	sw := parse(t, planSweep)
	wantStream, wantAgg, _ := run(t, rn, sw)
	puts, recs := d.puts.Load(), records()
	if puts == 0 || recs == 0 {
		t.Fatalf("the cold sweep wrote no record: %d puts, %d record files", puts, recs)
	}
	plan, err := sweep.Prepare(rn, sw)
	if err != nil {
		t.Fatal(err)
	}
	stream, agg, _ := run(t, rn, sw)
	sameRun(t, "warm", stream, agg, wantStream, wantAgg)
	rn.TrimMemo(0)
	if u := rn.MemoUsage(); u.Entries != 0 || u.Bytes != 0 {
		t.Fatalf("TrimMemo(0) left %+v", u)
	}
	if again, _ := sweep.Prepare(rn, sw); again == plan {
		t.Error("TrimMemo(0) kept the plan")
	}
	stream, agg, st := run(t, rn, sw)
	sameRun(t, "after the trim", stream, agg, wantStream, wantAgg)
	if st.StageRuns != 0 || st.DiskHits == 0 {
		t.Errorf("after the trim the sweep must be served from disk: %+v", st)
	}
	if d.puts.Load() != puts || records() != recs {
		t.Errorf("warm sweeps wrote %d records (%d → %d)", d.puts.Load()-puts, recs, records())
	}
}

// TestMemoPlanSpecsStayReadOnly checks the consumers of warm sweep
// results — sweep metrics and aggregation, and the serve mode's
// /v1/sweep encoding — only read the specs a plan shares with them:
// after running them over warm sweeps, results served from the plan
// still point at its specs, and those specs are unchanged.
func TestMemoPlanSpecsStayReadOnly(t *testing.T) {
	body := `{
		"name": "readonly",
		"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1},
		"axes": [
			{"field": "platform.l2.kb", "values": [256, 512]},
			{"field": "partition", "values": ["optimized", "shared", "profile"]}
		],
		"max_points": 6
	}`
	sw := parse(t, body)
	rn := scenario.NewRunner(2)
	var first []*scenario.Result
	if _, err := sweep.Execute(context.Background(), rn, sw, func(p sweep.PointResult) { first = append(first, p.Result) }); err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.Prepare(rn, sw)
	if err != nil {
		t.Fatal(err)
	}
	served := func() []*scenario.Result {
		var out []*scenario.Result
		res, err := sweep.ExecutePrepared(context.Background(), rn, plan, func(p sweep.PointResult) {
			if sweep.Summarize(p.Index, p.Coords, p.Result, nil, 0).Metrics == nil && p.Result.Scenario.Partition != scenario.PartitionProfile {
				t.Errorf("point %d has no metrics", p.Index)
			}
			out = append(out, p.Result)
		})
		if err != nil || res.Failed != 0 {
			t.Fatalf("warm sweep: %v, %+v", err, res)
		}
		return out
	}
	warm := served()
	snapshot := make([]string, len(warm))
	for i, r := range warm {
		b, _ := json.Marshal(r.Scenario)
		snapshot[i] = string(b)
	}

	srv := serve.New(experiments.Small(), rn)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reason":"complete"`) {
			t.Fatalf("serve sweep: %d\n%s", rec.Code, rec.Body.String())
		}
	}
	if again, _ := sweep.Prepare(rn, sw); again != plan {
		t.Fatal("the served sweep did not share the plan")
	}
	for _, r := range [][]*scenario.Result{first, warm, served()} {
		for i, res := range r {
			b, _ := json.Marshal(res.Scenario)
			if string(b) != snapshot[i] {
				t.Errorf("point %d: spec changed after consumers read it:\n%s\nvs\n%s", i, b, snapshot[i])
			}
		}
	}
	again := served()
	for i := range warm {
		if again[i].Scenario != warm[i].Scenario {
			t.Errorf("point %d: warm results do not share the plan's spec", i)
		}
	}
}

// TestMemoSizeMatchesLiveHeap checks the memo's byte accounting against
// the heap it describes. A fresh runner sweeps the small paper grid cold
// and then warm, so its memo holds every stage value, result entry and
// the sweep's plan; MemoUsage().Bytes must then lie within 2.5× of the
// live heap the runner added, measured after two collections (the
// second empties sync.Pool's victim cache). A warm-up sweep on a
// throwaway runner first pays the process-wide one-time costs, which
// belong to no memo entry. The recorded traces are charged their exact
// container size and are most of those bytes, so the "live" spelling,
// which normalizes to replay and holds the same traces, takes them
// (Stats().TraceBytes) off both sides: every other kind is held to the
// bound on its own.
func TestMemoSizeMatchesLiveHeap(t *testing.T) {
	const maxRatio = 2.5
	grid, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	sweepOnce := func(rn *scenario.Runner, sw sweep.Sweep) {
		res, err := sweep.Execute(context.Background(), rn, sw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%d points failed", res.Failed)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, trace := range []string{scenario.TraceReplay, scenario.TraceLive} {
		t.Run(trace, func(t *testing.T) {
			sw := grid
			sw.Base.Trace = trace
			sweepOnce(scenario.NewRunner(2), sw)

			before := liveHeap()
			rn := scenario.NewRunner(2)
			sweepOnce(rn, sw)
			sweepOnce(rn, sw)
			grown := int64(liveHeap()) - int64(before)
			u := rn.MemoUsage()
			runtime.KeepAlive(rn)
			est := u.Bytes
			if trace == scenario.TraceLive {
				traces := int64(rn.Stats().TraceBytes)
				est -= traces
				grown -= traces
			}
			if grown <= 0 || est <= 0 {
				t.Fatalf("memo estimates %d bytes in %d entries, live heap grew %d bytes", est, u.Entries, grown)
			}
			r := float64(est) / float64(grown)
			t.Logf("%d entries: estimated %d bytes, live heap grew %d bytes (ratio %.2f)", u.Entries, est, grown, r)
			if r < 1/maxRatio || r > maxRatio {
				t.Errorf("memo estimate %d bytes vs %d bytes of live heap (ratio %.2f, bound %.1f×)", est, grown, r, maxRatio)
			}
		})
	}
}
