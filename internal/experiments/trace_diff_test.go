package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// liveAndReplay returns a paper application's small-scale live
// functional workload and the replay workload of a trace captured from
// it, the two sources of one access stream.
func liveAndReplay(t *testing.T, name string) (live, replay core.Workload) {
	t.Helper()
	live, err := workloads.Build(name, workloads.BuildConfig{Scale: workloads.Small})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Capture(live, tracefile.Meta{Workload: name, Scale: workloads.Small.String()})
	if err != nil {
		t.Fatal(err)
	}
	return live, tr.Workload(name)
}

// TestTraceReplayMatchesLive is the end-to-end differential proof of the
// trace subsystem, and what lets every pipeline stage replay: for both
// paper applications and both execution engines, the full study on core
// — shared run, profiled miss curves, the allocation solved from them,
// partitioned run and the compositionality comparison — driven by a
// captured trace is bit-identical to the same study re-running the live
// functional applications.
func TestTraceReplayMatchesLive(t *testing.T) {
	engines := []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact}
	if testing.Short() {
		engines = engines[:1]
	}
	for _, wl := range []string{"2jpeg+canny", "mpeg2"} {
		for _, engine := range engines {
			t.Run(wl+"/"+engine.String(), func(t *testing.T) {
				live, replay := liveAndReplay(t, wl)
				cfg := Small()
				cfg.Platform.Engine = engine
				a, err := runDirect(live, cfg)
				if err != nil {
					t.Fatalf("live study: %v", err)
				}
				b, err := runDirect(replay, cfg)
				if err != nil {
					t.Fatalf("replay study: %v", err)
				}
				if !reflect.DeepEqual(a, b) {
					ja, _ := json.Marshal(a)
					jb, _ := json.Marshal(b)
					t.Errorf("replay diverged from live\n--- live ---\n%s\n--- replay ---\n%s", ja, jb)
				}
			})
		}
	}
}

// TestTraceReplayMatchesLiveCurves extends the proof to jittered
// profiling: core.Profile builds one app per repetition and runs each
// under a different scheduling quantum, so the averaged miss curves (the
// quantity every allocation is solved from) must match between the two
// sources across task interleavings, not only at the unjittered quantum.
func TestTraceReplayMatchesLiveCurves(t *testing.T) {
	for _, wl := range []string{"2jpeg+canny", "mpeg2"} {
		live, replay := liveAndReplay(t, wl)
		oc := core.OptimizeConfig{Platform: platform.Default(), Runs: 3, Workers: 2}
		a, err := core.Profile(live, oc)
		if err != nil {
			t.Fatalf("%s live profile: %v", wl, err)
		}
		b, err := core.Profile(replay, oc)
		if err != nil {
			t.Fatalf("%s replay profile: %v", wl, err)
		}
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			t.Errorf("%s: replayed miss curves diverged from live\n%s\nvs\n%s", wl, ja, jb)
		}
	}
}
