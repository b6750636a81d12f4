package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// TestTraceReplayMatchesLive is the end-to-end differential proof of the
// trace subsystem: for both paper applications and both exec_engine
// spellings (which normalize to the production engine), the full
// optimized study driven by trace replay is
// bit-identical — per-entity stats, makespans, allocations, the
// compositionality comparison, everything in the result document — to
// the same study re-running the live functional applications at every
// stage. This is what justifies clearing the trace mode from the
// content address (scenario.Key) and sharing stage records between the
// modes.
func TestTraceReplayMatchesLive(t *testing.T) {
	engines := []string{"merged", "word"}
	if testing.Short() {
		engines = engines[:1]
	}
	for _, wl := range []string{"2jpeg+canny", "mpeg2"} {
		for _, engine := range engines {
			t.Run(wl+"/"+engine, func(t *testing.T) {
				spec := scenario.Scenario{Workload: wl, Scale: "small", Runs: 1, ExecEngine: engine}
				live := spec
				live.Trace = scenario.TraceLive

				// Separate runners: replay and live deliberately share every
				// stage content address, so a shared runner would serve the
				// second mode from the first's memo and prove nothing.
				liveRes, err := scenario.NewRunner(2).Run(live)
				if err != nil {
					t.Fatalf("live study: %v", err)
				}
				replayRes, err := scenario.NewRunner(2).Run(spec)
				if err != nil {
					t.Fatalf("replay study: %v", err)
				}

				if liveRes.Key != replayRes.Key {
					t.Fatalf("trace mode leaked into the content address: %s vs %s", liveRes.Key, replayRes.Key)
				}
				// Neutralize the one intentional difference: the normalized
				// spec echoed in the document records the requested mode.
				liveRes.Scenario.Trace = ""
				replayRes.Scenario.Trace = ""
				a, _ := json.Marshal(liveRes)
				b, _ := json.Marshal(replayRes)
				if string(a) != string(b) {
					t.Errorf("replay diverged from live\n--- live ---\n%s\n--- replay ---\n%s", a, b)
				}
			})
		}
	}
}

// TestTraceReplayMatchesLiveCurves extends the differential proof to the
// raw profiling output: the per-entity miss curves (the quantity every
// allocation is solved from) must match between modes, not only the
// summarized study documents.
func TestTraceReplayMatchesLiveCurves(t *testing.T) {
	for _, wl := range []string{"2jpeg+canny", "mpeg2"} {
		spec := scenario.Scenario{Workload: wl, Scale: "small", Runs: 1, Partition: scenario.PartitionProfile}
		live := spec
		live.Trace = scenario.TraceLive
		liveRes, err := scenario.NewRunner(1).Run(live)
		if err != nil {
			t.Fatalf("%s live profile: %v", wl, err)
		}
		replayRes, err := scenario.NewRunner(1).Run(spec)
		if err != nil {
			t.Fatalf("%s replay profile: %v", wl, err)
		}
		a, _ := json.Marshal(liveRes.Curves)
		b, _ := json.Marshal(replayRes.Curves)
		if len(liveRes.Curves) == 0 || string(a) != string(b) {
			t.Errorf("%s: replayed miss curves diverged from live\n%s\nvs\n%s", wl, a, b)
		}
	}
}
