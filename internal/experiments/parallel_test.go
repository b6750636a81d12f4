package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// TestEngineEquivalenceSmall is the acceptance check for the
// stack-distance engine: on the real Small-scale JPEGCanny and MPEG2
// profiling runs it must return curves bit-identical to the
// bank-of-caches reference oracle. Runs=1 keeps both passes on the same
// deterministic schedule, so any divergence is an engine bug, not noise.
func TestEngineEquivalenceSmall(t *testing.T) {
	for _, w := range []core.Workload{
		workloads.JPEGCanny(workloads.Small, nil),
		workloads.MPEG2(workloads.Small, nil),
	} {
		oc := core.OptimizeConfig{Platform: Small().Platform, Runs: 1}

		oc.Engine = profile.EngineStackDist
		sd, err := core.Profile(w, oc)
		if err != nil {
			t.Fatalf("%s stackdist: %v", w.Name, err)
		}
		oc.Engine = profile.EngineBank
		bank, err := core.Profile(w, oc)
		if err != nil {
			t.Fatalf("%s bank: %v", w.Name, err)
		}
		if len(sd) != len(bank) {
			t.Fatalf("%s: %d vs %d curves", w.Name, len(sd), len(bank))
		}
		for e := range sd {
			if sd[e].Entity != bank[e].Entity {
				t.Fatalf("%s: entity order %q vs %q", w.Name, sd[e].Entity, bank[e].Entity)
			}
			if sd[e].Accesses != bank[e].Accesses {
				t.Errorf("%s/%s: accesses %v vs %v", w.Name, sd[e].Entity, sd[e].Accesses, bank[e].Accesses)
			}
			for k := range sd[e].Misses {
				if sd[e].Misses[k] != bank[e].Misses[k] {
					t.Errorf("%s/%s at %d units: stackdist %v, bank %v",
						w.Name, sd[e].Entity, sd[e].Sizes[k], sd[e].Misses[k], bank[e].Misses[k])
				}
			}
		}
	}
}

// TestParallelProfileMatchesSequential checks that fanning the jittered
// profiling repetitions over the worker pool changes nothing: runs are
// averaged in repetition order, so the curves must be identical.
// Under -race this doubles as the data-race check for core.Profile.
func TestParallelProfileMatchesSequential(t *testing.T) {
	w := workloads.JPEGCanny(workloads.Small, nil)
	oc := core.OptimizeConfig{Platform: Small().Platform, Runs: 3, Workers: 1}
	seq, err := core.Profile(w, oc)
	if err != nil {
		t.Fatal(err)
	}
	oc.Workers = 4
	par, err := core.Profile(w, oc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel profile differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestParallelHeadlineMatchesSequential checks the full harness fan-out:
// the headline command (both app studies plus the 1 MB variant, batched
// over the runner's pool) must render identical text and documents at
// any worker count. Every simulation owns its platform instance, so
// under -race this is the data-race check for the whole parallel
// harness.
func TestParallelHeadlineMatchesSequential(t *testing.T) {
	seq, err := RunCommand("headline", Small(), scenario.NewRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCommand("headline", Small(), scenario.NewRunner(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Documents, par.Documents) {
		t.Errorf("parallel headline documents differ:\nseq: %+v\npar: %+v", seq.Documents, par.Documents)
	}
	if seq.Text != par.Text {
		t.Error("parallel headline table rendering differs")
	}
}
