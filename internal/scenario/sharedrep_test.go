package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workloads"
)

// TestSharedRepetitionSimulatesOnce checks that a cold optimized
// scenario simulates its shared repetition once, for both its shared
// baseline and its profile's first repetition: 2 simulations at runs 1
// (the shared repetition and the partitioned run, where each stage
// simulating on its own took 3) and 3 at runs 2 (4). A migration-on
// shared run is no shared repetition and is simulated beside it. Every
// section must equal what the stages compute separately: a plain shared
// run, Profile over all repetitions and the solver, and the partitioned
// run.
func TestSharedRepetitionSimulatesOnce(t *testing.T) {
	for _, c := range []struct {
		runs        int
		migration   bool
		simulations uint64
	}{
		{1, false, 2},
		{2, false, 3},
		{1, true, 3},
	} {
		spec := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: c.runs, Migration: c.migration, Partition: PartitionOptimized}
		rn := NewRunner(2)
		res, err := rn.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := rn.Stats(); st.Simulations != c.simulations || st.StageRuns != 5 || st.RunRuns != 2 || st.ProfileRuns != 1 {
			t.Errorf("runs %d, migration %v: want %d simulations over 5 stages, got %+v", c.runs, c.migration, c.simulations, st)
		}

		n, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.Build(n.Workload, n.buildConfig())
		if err != nil {
			t.Fatal(err)
		}
		pc, err := n.Platform.Config()
		if err != nil {
			t.Fatal(err)
		}
		pc.Sched.AllowMigration = n.Migration
		shared, err := core.Run(w, core.RunConfig{Platform: pc, Strategy: core.Shared})
		if err != nil {
			t.Fatal(err)
		}
		oc, err := n.optimizeConfig()
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.Optimize(w, oc)
		if err != nil {
			t.Fatal(err)
		}
		part, err := core.Run(w, core.RunConfig{Platform: pc, Strategy: core.Partitioned, Alloc: opt.Allocation})
		if err != nil {
			t.Fatal(err)
		}
		want := &Result{
			Shared:      summarizeRun(shared),
			Partitioned: summarizeRun(part),
			Optimize:    summarizeOptimize(opt),
			Compose:     summarizeCompose(core.CompareExpectedSimulated(opt.Expected, part)),
		}
		got := &Result{}
		got.setSections(res)
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Errorf("runs %d, migration %v: sections differ from the separately computed stages\n%s\nvs\n%s", c.runs, c.migration, gb, wb)
		}
	}
}

// TestSharedRepetitionFaultFailsBothReaders injects a panic, then an
// error, into a shared repetition while the run.shared and profile
// stages both wait on it: the repetition's build waits on the trace
// capture, held until one stage is blocked building the repetition and
// the other waiting for it, and the capture then fails at its
// stage.trace fault site. Both stages must fail with the structured
// error (a *StagePanicError from the trace stage for the panic), nothing
// may be cached, neither stage nor the repetition, and a retry must
// succeed and equal a clean run.
func TestSharedRepetitionFaultFailsBothReaders(t *testing.T) {
	const seed = 29
	spec := Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionOptimized}
	clean, err := NewRunner(1).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.StageKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faults.Kind{faults.Panic, faults.Error} {
		t.Run(kind.String(), func(t *testing.T) {
			rn := NewRunner(2)
			trace, owner := rn.memo.lookup(keys["trace"])
			if !owner {
				t.Fatal("a fresh runner has a trace entry")
			}
			var sharedErr, profileErr error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, sharedErr = rn.runStage(context.Background(), n, core.Shared, nil, "")
			}()
			go func() {
				defer wg.Done()
				_, profileErr = rn.profileStage(context.Background(), n)
			}()
			// The stage building the repetition waits on the held trace
			// inside a stage lookup, the other on the repetition inside
			// Memoize.
			waitBlocked(t, "(*Runner).lookup")
			waitBlocked(t, "(*Runner).Memoize")

			plan := faults.New(seed)
			if kind == faults.Panic {
				plan.PanicAt(faults.SiteStage+stageTrace, 0)
			} else {
				plan.ErrorAt(faults.SiteStage+stageTrace, 0)
			}
			restore := faults.Activate(plan)
			rn.fill(stageTrace, trace, func() (any, error) {
				t.Error("the trace capture ran past its fault")
				return nil, errors.New("unreachable")
			})
			wg.Wait()
			restore()

			for stage, err := range map[string]error{"run.shared": sharedErr, "profile": profileErr} {
				if kind == faults.Panic {
					var pe *StagePanicError
					want := faults.PanicValue{Site: faults.SiteStage + stageTrace, Ordinal: 0, Seed: seed}
					if !errors.As(err, &pe) || pe.Stage != stageTrace || pe.Key != keys["trace"] || pe.Value != want {
						t.Errorf("%s: want the trace stage's *StagePanicError, got %v", stage, err)
					}
				} else {
					var ie *faults.InjectedError
					if !errors.As(err, &ie) || ie.Site != faults.SiteStage+stageTrace {
						t.Errorf("%s: want the injected trace error, got %v", stage, err)
					}
				}
			}
			for _, key := range []string{keys["trace"], keys["run.shared"], keys["profile"], memoryKind + "|" + sharedRepKey(n)} {
				if rn.memo.resident(key) != nil {
					t.Errorf("%s is cached after the fault", key)
				}
			}
			if u := rn.MemoUsage(); u.Entries != 0 {
				t.Errorf("nothing may be resident after the fault, got %+v", u)
			}
			checkMemo(t, rn.memo, true)
			if st := rn.Stats(); st.StageErrors != 3 || st.Simulations != 0 || st.MemoHits != 0 || st.TraceHits != 0 {
				t.Errorf("want the trace and both readers evicted, nothing simulated and no hit, got %+v", st)
			}

			res, err := rn.Run(spec)
			if err != nil {
				t.Fatalf("retry after the fault must succeed, got %v", err)
			}
			got, _ := json.Marshal(res)
			want, _ := json.Marshal(clean)
			if string(got) != string(want) {
				t.Errorf("retry differs from a clean run\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// waitBlocked waits until a goroutine started by the calling test is
// blocked receiving from a channel directly in fn, a function of this
// package.
func waitBlocked(t *testing.T, fn string) {
	t.Helper()
	frame := "repro/internal/scenario." + fn + "("
	origin := "repro/internal/scenario." + strings.SplitN(t.Name(), "/", 2)[0] + "."
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, frame) && strings.Contains(frames, origin) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine of %s blocked in %s", origin, fn)
		}
	}
}
