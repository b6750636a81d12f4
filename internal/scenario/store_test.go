package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/tracefile"
)

// diskRunner returns a runner persisting to dir through the resilient
// wrapper, exactly as the CLI's -store-dir wiring builds it.
func diskRunner(t *testing.T, workers int, dir string) *Runner {
	t.Helper()
	ds, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewRunnerWithStore(workers, store.NewResilient(ds, store.ResilientOptions{
		Backoff: time.Microsecond,
	}))
}

// fullSpec exercises every stage kind: the optimized partition runs the
// shared baseline, the profile and optimize legs, and the partitioned
// run — four distinct durable records.
func fullSpec() Scenario {
	return Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionOptimized}
}

// TestRunnerWarmRestartFromDisk is the restart contract: a fresh runner
// over a directory populated by an earlier one re-executes *zero*
// stages — every stage of every kind is served from disk — and returns
// a bit-identical result document.
func TestRunnerWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()

	cold := diskRunner(t, 2, dir)
	r1, err := cold.Run(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.StageRuns != 5 {
		t.Fatalf("cold run must execute all 5 stages (trace + 4), got %+v", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := diskRunner(t, 2, dir) // a new process, same directory
	defer warm.Close()
	r2, err := warm.Run(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.StageRuns != 0 || st.ProfileRuns != 0 || st.OptimizeRuns != 0 || st.RunRuns != 0 {
		t.Errorf("warm restart must re-execute nothing, got %+v", st)
	}
	// 3 hits, not 4: the profile stage is only ever looked up from
	// inside the optimize stage's closure, which the disk hit skips.
	if st.DiskHits != 3 {
		t.Errorf("want 3 stages served from disk, got %+v", st)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Errorf("disk-served result differs from the computed one\n%s\nvs\n%s", b1, b2)
	}
}

// TestRunnerTornWriteRecovery injects a torn write (a record cut
// mid-payload that reported success — the crash-mid-flush shape), then
// restarts: the corrupt record must be quarantined and recomputed, the
// result must be correct, and the recompute must heal the slot so a
// third runner warm-hits it.
func TestRunnerTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec() // profile-only: exactly one stage, one record

	writer := diskRunner(t, 1, dir)
	// Put ordinal 0 is the trace record; ordinal 1 tears the profile
	// record the test reads back.
	restore := faults.Activate(faults.New(7).TruncateAt(faults.SiteStorePut, 1))
	r1, err := writer.Run(spec)
	restore()
	if err != nil {
		t.Fatalf("a torn durable write must not fail the scenario: %v", err)
	}
	writer.Close()

	// "Restart": the torn record is detected on read, quarantined, and
	// transparently recomputed.
	reader := diskRunner(t, 1, dir)
	r2, err := reader.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := reader.Stats()
	if st.Quarantined != 1 {
		t.Errorf("the torn record must be quarantined, got %+v", st)
	}
	// 1 disk hit: the recompute's closure serves the (intact) trace
	// record from disk instead of recapturing.
	if st.DiskHits != 1 || st.StageRuns != 1 || st.TraceRuns != 0 {
		t.Errorf("the torn record must be recomputed, not served: %+v", st)
	}
	b1, _ := json.Marshal(r1.Curves)
	b2, _ := json.Marshal(r2.Curves)
	if string(b1) != string(b2) {
		t.Error("recomputed result differs from the original")
	}
	reader.Close()

	// The recompute overwrote the slot: a third runner warm-hits.
	healed := diskRunner(t, 1, dir)
	defer healed.Close()
	if _, err := healed.Run(spec); err != nil {
		t.Fatal(err)
	}
	st = healed.Stats()
	if st.StageRuns != 0 || st.DiskHits != 1 {
		t.Errorf("the healed slot must serve from disk, got %+v", st)
	}

	// The quarantined evidence is preserved on disk.
	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".rec") {
			recs++
		}
	}
	if recs != 1 {
		t.Errorf("want 1 quarantined record on disk, found %d", recs)
	}
}

// TestRunnerDegradesToMemoryOnly is the broken-volume contract: with
// every durable read AND write failing, the breaker trips the store
// into degraded mode and every scenario still completes correctly from
// the memory layer — durable failures cost durability, never results.
func TestRunnerDegradesToMemoryOnly(t *testing.T) {
	rn := diskRunner(t, 2, t.TempDir())
	defer rn.Close()

	restore := faults.Activate(faults.New(7).
		ErrorAlways(faults.SiteStoreGet).
		ErrorAlways(faults.SiteStorePut))
	defer restore()

	// Distinct specs force fresh stages (store traffic); a repeat at the
	// end must still memo-hit from the memory layer.
	specs := []Scenario{smallSpec(), fullSpec(), smallSpec()}
	results := rn.RunBatch(specs)
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("scenario %d failed under a dead disk: %s", i, r.Error)
		}
	}
	if mode := rn.StoreMode(); mode != "degraded" {
		t.Errorf("StoreMode = %q, want degraded", mode)
	}
	st := rn.Stats()
	if st.StoreErrors == 0 {
		t.Errorf("durable failures must be counted, got %+v", st)
	}
	if st.MemoHits == 0 {
		t.Errorf("the memory layer must keep serving repeats, got %+v", st)
	}

	// Identical rerun: everything from memory, no stage re-executes.
	before := rn.Stats().StageRuns
	for i, r := range rn.RunBatch(specs) {
		if r.Error != "" {
			t.Fatalf("degraded-mode rerun scenario %d failed: %s", i, r.Error)
		}
	}
	if after := rn.Stats().StageRuns; after != before {
		t.Errorf("degraded-mode rerun re-executed %d stages", after-before)
	}
}

// TestStageDocEnvelopeGolden pins the persisted stage-document envelope:
// records written by one build are addressed and decoded by later
// builds, so the envelope's field names, order, and version byte must
// not drift without a StageDocVersion bump.
func TestStageDocEnvelopeGolden(t *testing.T) {
	b, err := encodeStage(stageProfile, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"kind":"profile","data":[1,2]}`
	if string(b) != want {
		t.Fatalf("stage envelope drifted:\n got %s\nwant %s", b, want)
	}
}

// TestStageDocVersionAndKindMismatch checks the decode guards: a
// foreign version or a kind swap is an error (the runner treats it as a
// miss and recomputes), never a silently misread value.
func TestStageDocVersionAndKindMismatch(t *testing.T) {
	if _, err := decodeStage(stageProfile, []byte(`{"v":99,"kind":"profile","data":[]}`)); err == nil {
		t.Error("future-version document must not decode")
	}
	if _, err := decodeStage(stageOptimize, []byte(`{"v":1,"kind":"profile","data":[]}`)); err == nil {
		t.Error("kind-swapped document must not decode")
	}
	if _, err := decodeStage(stageProfile, []byte(`not json`)); err == nil {
		t.Error("garbage must not decode")
	}
}

// TestStageDocOptimizeRetiredFields checks that an optimize record
// written while its document still repeated the profiled curves and
// named the solver decodes to the allocation, expected misses and
// budget: the fields left the document without a StageDocVersion bump
// or a change of stage key, so such records stay addressed and must
// keep serving warm restarts.
func TestStageDocOptimizeRetiredFields(t *testing.T) {
	const doc = `{"v":1,"kind":"optimize","data":{"Allocation":{"FrontEnd1":4,"sync":1},` +
		`"Curves":[{"Entity":"FrontEnd1","Sizes":[1,2,4],"Misses":[4608,4423.5,1003],"Accesses":4608}],` +
		`"Expected":{"FrontEnd1":1003,"sync":12},"Budget":32,"Solver":1}}`
	v, err := decodeStage(stageOptimize, []byte(doc))
	if err != nil {
		t.Fatalf("an optimize record with the retired fields must decode: %v", err)
	}
	want := &core.OptimizeResult{
		Allocation: core.Allocation{"FrontEnd1": 4, "sync": 1},
		Expected:   map[string]float64{"FrontEnd1": 1003, "sync": 12},
		Budget:     32,
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("decoded %+v, want %+v", v, want)
	}
}

// TestStageDocRoundTrip proves decode(encode(v)) over real stage values
// is lossless: a result served from a stored document is bit-identical
// to the freshly computed one (the warm-restart test proves the same
// end to end; this isolates the codec).
func TestStageDocRoundTrip(t *testing.T) {
	rn := NewRunner(1)
	spec := fullSpec()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	curves, err := rn.profileStage(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeStage(stageProfile, curves)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeStage(stageProfile, b)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := json.Marshal(curves)
	back, _ := json.Marshal(v)
	if string(orig) != string(back) {
		t.Errorf("profile stage value did not round-trip:\n%s\nvs\n%s", orig, back)
	}
}

// captureTrace captures the trace a spec's stages replay, on a
// memory-only runner, and returns it with its durable key.
func captureTrace(t *testing.T, spec Scenario) (*tracefile.Trace, string) {
	t.Helper()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRunner(1).traceStage(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stageTrace + "|" + traceStageKey(n)
}

// allocatedBytes returns the bytes the process allocates while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTraceRecordAllocs holds persisting a trace record, and loading it
// back, to about one container each: the record is the container
// itself, which the store frames once, and the decoded trace aliases the
// bytes read back. A small-scale 2jpeg+canny container is about 2 MB, so
// a record that re-encoded the trace would show.
func TestTraceRecordAllocs(t *testing.T) {
	const maxRatio = 1.25
	tr, key := captureTrace(t, Scenario{Workload: "2jpeg+canny", Scale: "small"})
	rn := diskRunner(t, 1, t.TempDir())
	defer rn.Close()

	persisted := allocatedBytes(func() { rn.persist(stageTrace, key, tr) })
	var (
		v  any
		ok bool
	)
	loaded := allocatedBytes(func() { v, ok = rn.loadDurable(stageTrace, key) })
	if st := rn.Stats(); !ok || st.StoreErrors != 0 {
		t.Fatalf("the persisted trace must load from disk, got ok %v, %+v", ok, st)
	}
	if !bytes.Equal(v.(*tracefile.Trace).Bytes(), tr.Bytes()) {
		t.Fatal("the loaded trace's bytes differ from the captured ones")
	}
	for _, c := range []struct {
		side  string
		bytes uint64
	}{{"persist", persisted}, {"load", loaded}} {
		r := float64(c.bytes) / float64(tr.Size())
		t.Logf("%s: %d bytes, %.2f× the %d-byte container", c.side, c.bytes, r, tr.Size())
		if r > maxRatio {
			t.Errorf("%s allocates %.2f× the container, want at most %.2f×", c.side, r, maxRatio)
		}
	}
}

// TestOldTraceRecordRecaptures pins what becomes of a trace record that
// earlier builds wrote, the container base64-encoded inside a JSON stage
// document: it fails the container's magic check, so the first runner to
// read it counts one store error, deletes it and recaptures the trace,
// whose container takes its place and serves the next runner from disk.
func TestOldTraceRecordRecaptures(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	tr, key := captureTrace(t, spec)
	data, err := json.Marshal(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(stageDoc{Version: 1, Kind: stageTrace, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(key, old); err != nil {
		t.Fatal(err)
	}

	rn := diskRunner(t, 1, dir)
	defer rn.Close()
	if _, err := rn.Run(spec); err != nil {
		t.Fatalf("an old trace record must recapture, not fail the scenario: %v", err)
	}
	if st := rn.Stats(); st.StoreErrors != 1 || st.TraceRuns != 1 {
		t.Errorf("an old trace record must count one store error and recapture, got %+v", st)
	}
	rec, err := ds.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, tr.Bytes()) {
		t.Error("the recaptured trace record is not exactly the container")
	}

	// A fresh profile replays the trace: from disk, with no capture.
	second := smallSpec()
	second.Runs = 3
	warm := diskRunner(t, 1, dir)
	defer warm.Close()
	if _, err := warm.Run(second); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.TraceRuns != 0 || st.DiskHits != 1 || st.StoreErrors != 0 {
		t.Errorf("the recaptured record must serve the trace from disk, got %+v", st)
	}
}
