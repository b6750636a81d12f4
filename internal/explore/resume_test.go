package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// diskRunner builds a runner persisting to dir, the way the CLI's
// -store-dir flag wires it.
func diskRunner(t *testing.T, dir string) *scenario.Runner {
	t.Helper()
	ds, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rn := scenario.NewRunnerWithStore(2, store.NewResilient(ds, store.ResilientOptions{
		Backoff: time.Microsecond,
	}))
	t.Cleanup(func() { rn.Close() })
	return rn
}

// TestCrashResumeReExecutesNothing is the crash-safety acceptance test:
// an exploration killed at the explore.step fault site — after a
// round's points simulated and persisted, before the checkpoint
// recorded them — resumes to the exact final state of an unkilled run,
// and the two halves together execute exactly the stage work of the
// unkilled baseline: zero stages re-executed across the crash.
func TestCrashResumeReExecutesNothing(t *testing.T) {
	sw := paperGrid(t)
	ex := Explore{Name: "crashy", Sweep: sw, Strategy: Strategy{Seed: 5}}

	// Baseline: the same exploration, uninterrupted, on its own store.
	baseline := diskRunner(t, t.TempDir())
	want, err := Run(context.Background(), baseline, ex, Options{CheckpointDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseStats := baseline.Stats()

	// Crash run: same spec, fresh store + checkpoint dir, killed at the
	// second round's crash window (round evaluated, checkpoint not yet
	// written — the worst case: the round's work is only in the store).
	storeDir, cpDir := t.TempDir(), t.TempDir()
	crashed := diskRunner(t, storeDir)
	restore := faults.Activate(faults.New(1).ErrorAt(faults.SiteExploreStep, 1))
	_, err = Run(context.Background(), crashed, ex, Options{CheckpointDir: cpDir}, nil)
	restore()
	var inj *faults.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("crash run: want injected fault, got %v", err)
	}
	crashedStats := crashed.Stats()
	if crashedStats.StageRuns == 0 {
		t.Fatal("crash run executed nothing — the fault fired too early to prove anything")
	}

	// Resume: same store, same checkpoint dir. The checkpoint restores
	// round one's points without touching the runner; the re-proposed
	// round-two points land as disk hits, not stage runs.
	resumed := diskRunner(t, storeDir)
	got, err := Run(context.Background(), resumed, LoadSpecOrDie(t, cpDir), Options{CheckpointDir: cpDir, Resume: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumedStats := resumed.Stats()

	if got.Resumed == 0 {
		t.Error("resumed run restored nothing from the checkpoint")
	}
	if total := crashedStats.StageRuns + resumedStats.StageRuns; total != baseStats.StageRuns {
		t.Errorf("stage executions across the crash: %d crashed + %d resumed = %d, baseline %d — %d stages re-executed",
			crashedStats.StageRuns, resumedStats.StageRuns, total, baseStats.StageRuns,
			int64(total)-int64(baseStats.StageRuns))
	}
	if resumedStats.DiskHits == 0 {
		t.Error("resumed run hit the durable store zero times — the crash window was empty")
	}

	// The resumed trajectory must finish bit-identically to the
	// uninterrupted one: same visit log, same fronts.
	if wantLog, gotLog := visitLog(want), visitLog(got); wantLog != gotLog {
		t.Errorf("resumed trajectory diverges from baseline:%s\nvs baseline:%s", gotLog, wantLog)
	}
	if wantFronts, gotFronts := fmt.Sprintf("%+v", want.Pareto), fmt.Sprintf("%+v", got.Pareto); wantFronts != gotFronts {
		t.Errorf("resumed fronts diverge:\n%s\nvs\n%s", gotFronts, wantFronts)
	}
	if !got.Converged {
		t.Error("resumed run must converge like the baseline")
	}
}

// TestResumeRejectsBadCheckpointIndices: a checkpoint whose visit log
// names a point outside the space, or one point twice, fails the resume
// with an error naming the index — never a result counting phantom or
// duplicate points as visited. The logs are marked converged, so a
// resume that trusted them would finish without simulating anything.
func TestResumeRejectsBadCheckpointIndices(t *testing.T) {
	ex := Explore{Name: "bad-indices", Sweep: paperGrid(t)}
	fp, err := ex.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		indices []int
		want    string
	}{
		{"beyond-space", []int{1000, 3}, "point 1000, outside the 32-point space"},
		{"negative", []int{3, -7}, "point -7, outside"},
		{"duplicate", []int{3, 5, 3}, "point 3 twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cp := &checkpoint{SchemaVersion: 1, Fingerprint: fp, Round: 1, Radius: 1, Converged: true}
			for _, p := range c.indices {
				cp.Visited = append(cp.Visited, PointRecord{PointSummary: sweep.PointSummary{Index: p}})
			}
			if err := saveCheckpoint(dir, cp); err != nil {
				t.Fatal(err)
			}
			rn := scenario.NewRunner(1)
			defer rn.Close()
			_, err := Run(context.Background(), rn, ex, Options{CheckpointDir: dir, Resume: true}, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("resume over visit log %v: err %v, want an error containing %q", c.indices, err, c.want)
			}
		})
	}
}

// LoadSpecOrDie reloads the exploration from the checkpoint directory —
// the resume path the CLI takes, proving the directory is freestanding.
func LoadSpecOrDie(t *testing.T, dir string) Explore {
	t.Helper()
	ex, err := LoadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}
