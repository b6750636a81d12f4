package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// TestProfileRepZeroIsSharedBaseline checks the identity the scenario
// runner's shared repetition rests on, for the applications at small
// scale, seeds 0-2, on both execution engines: profiling repetition 0
// runs at the configured quantum with migration off, and the profiler
// only observes, so its result is the shared baseline Run measures.
// Profile, at one and at two runs, is the in-order average of its
// repetitions.
func TestProfileRepZeroIsSharedBaseline(t *testing.T) {
	for _, name := range []string{"jpeg1-only", "mpeg2", "2jpeg+canny"} {
		for seed := uint64(0); seed < 3; seed++ {
			w, err := workloads.Build(name, workloads.BuildConfig{Scale: workloads.Small, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact} {
				pc := platform.Default()
				pc.Engine = engine
				want, err := core.Run(w, core.RunConfig{Platform: pc, Strategy: core.Shared})
				if err != nil {
					t.Fatal(err)
				}
				oc := core.OptimizeConfig{Platform: pc}
				reps := make([][]profile.Curve, 2)
				for r := range reps {
					app, err := w.Factory()
					if err != nil {
						t.Fatal(err)
					}
					var got *core.Result
					if got, reps[r], err = core.ProfileRep(app, oc, r); err != nil {
						t.Fatal(err)
					}
					if r == 0 && !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d, %v: repetition 0 differs from the shared run", name, seed, engine)
					}
				}
				for _, runs := range []int{1, 2} {
					oc.Runs = runs
					curves, err := core.Profile(w, oc)
					if err != nil {
						t.Fatal(err)
					}
					avg, err := profile.Average(reps[:runs])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(curves, avg) {
						t.Errorf("%s seed %d, %v, runs %d: Profile differs from the average of its repetitions", name, seed, engine, runs)
					}
				}
			}
		}
	}
}
