package scenario

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
)

// TestTraceReadFaultRecaptures proves the corrupt-trace contract: a
// stored trace record that fails to decode (the trace.read fault site
// models bit rot in the durable store) is treated as a miss — counted,
// the record deleted, the stage recaptured from a live functional run —
// and the scenario still succeeds with bit-identical results.
// Corruption costs a re-run, never a failed scenario. A resident trace
// is a value no decode touches, so the memo is trimmed first and the
// trace can only come back from disk.
func TestTraceReadFaultRecaptures(t *testing.T) {
	rn := diskRunner(t, 1, t.TempDir())
	defer rn.Close()
	first := smallSpec()
	if _, err := rn.Run(first); err != nil {
		t.Fatal(err)
	}
	if st := rn.Stats(); st.TraceRuns != 1 || st.StoreErrors != 0 {
		t.Fatalf("setup: want exactly the cold capture, got %+v", st)
	}
	rn.TrimMemo(0)

	// A second spec sharing the workload but not the profile key forces
	// a fresh profile stage, whose trace lookup is the first decode of
	// the stored trace (the capture itself never decodes). Arm that
	// decode to fail.
	second := smallSpec()
	second.Runs = 3
	restore := faults.Activate(faults.New(5).ErrorAt(faults.SiteTraceRead, 0))
	res, err := rn.Run(second)
	restore()
	if err != nil {
		t.Fatalf("a corrupt trace must recapture, not fail the scenario: %v", err)
	}
	st := rn.Stats()
	if st.TraceRuns != 2 {
		t.Errorf("corrupt trace must be recaptured from a live run, got %+v", st)
	}
	if st.StoreErrors != 1 {
		t.Errorf("the failed decode must be counted as a store error, got %+v", st)
	}

	// Capture is deterministic: the recaptured trace drives the exact
	// result a clean runner computes.
	clean, err := NewRunner(1).Run(second)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Curves)
	b, _ := json.Marshal(clean.Curves)
	if len(res.Curves) == 0 || string(a) != string(b) {
		t.Errorf("recaptured trace produced different curves\n%s\nvs\n%s", a, b)
	}
}

// TestTraceSharedAcrossEngines pins the point of keying traces by
// (workload, scale, seed) alone: one recorded trace serves every
// platform geometry — the second L2 size profiles from it with zero
// functional runs. An engine twin normalizes to the production engines
// and so shares every stage key: once its production twin has finished,
// it runs no stage at all.
func TestTraceSharedAcrossEngines(t *testing.T) {
	rn := NewRunner(1)
	small := smallSpec()
	small.Platform = &PlatformSpec{L2: CacheSpec{Sets: iptr(256)}}
	big := smallSpec()
	big.Platform = &PlatformSpec{L2: CacheSpec{Sets: iptr(1024)}}

	for _, s := range []Scenario{small, big} {
		if _, err := rn.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	st := rn.Stats()
	// 3 stage runs: one capture + one profile stage per geometry.
	if st.StageRuns != 3 || st.ProfileRuns != 2 {
		t.Errorf("geometries must profile separately over one trace, got %+v", st)
	}
	if st.TraceRuns != 1 {
		t.Errorf("the trace must be captured exactly once across geometries, got %+v", st)
	}
	if st.TraceHits != 1 {
		t.Errorf("the second geometry must replay the recorded trace, got %+v", st)
	}
	if st.TraceBytes == 0 {
		t.Errorf("the capture must account its encoded size, got %+v", st)
	}

	twin := big
	twin.ExecEngine = "word"
	twin.ProfileEngine = "bank"
	if _, err := rn.Run(twin); err != nil {
		t.Fatal(err)
	}
	if d := rn.Stats().Delta(st); d.StageRuns != 0 || d.MemoHits != 1 {
		t.Errorf("the engine twin of a finished spec must run no stage, got %+v", d)
	}
}
