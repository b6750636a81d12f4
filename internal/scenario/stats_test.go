package scenario

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/tracefile"
)

// TestMemoStatsBySource pins what each outcome of a stage lookup adds to
// Stats, for every stage kind, by where the lookup's value came from:
// the lookup executed the stage (successfully, with an error, or with a
// panic), decoded the stage's disk record (or found none, a corrupt one
// or one that does not decode, and executed), or was served by the memo,
// finding the entry resident or waiting on its computation in flight. A
// trace is captured through traceStage, as the runner captures one;
// every other lookup is driven directly.
func TestMemoStatsBySource(t *testing.T) {
	values := map[string]any{
		stageProfile:  []profile.Curve{{Entity: "e", Sizes: []int{1}, Misses: []float64{2}}},
		stageOptimize: &core.OptimizeResult{},
		stageRun:      &core.Result{},
		stageTrace:    goldenTrace(t),
	}
	errStage := errors.New("stage failed")
	for _, kind := range []string{stageTrace, stageProfile, stageOptimize, stageRun} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			mem, disk := NewRunner(1), diskRunner(t, 1, dir)
			defer disk.Close()
			records, err := store.OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}

			// next returns a key no lookup has used and a successful
			// execution of its stage.
			n := 0
			next := func() (string, func(*Runner) (any, error)) {
				n++
				if kind == stageTrace {
					s, err := Scenario{Workload: "jpeg1-only", Scale: "small", Seed: uint64(n)}.Normalize()
					if err != nil {
						t.Fatal(err)
					}
					return stageTrace + "|" + traceStageKey(s), func(rn *Runner) (any, error) {
						return rn.traceStage(context.Background(), s)
					}
				}
				key := fmt.Sprintf("%s|%d", kind, n)
				return key, func(rn *Runner) (any, error) {
					return rn.lookup(kind, key, func() (any, error) { return values[kind], nil })
				}
			}
			lookup := func(rn *Runner, key string, f func() (any, error)) (any, error) {
				return rn.lookup(kind, key, f)
			}
			unreached := func() (any, error) {
				t.Error("a served lookup executed its stage")
				return nil, errStage
			}
			// ran is what executing a stage adds, v the value it returned.
			ran := func(v any) Stats {
				s := Stats{StageRuns: 1}
				switch kind {
				case stageProfile:
					s.ProfileRuns = 1
				case stageOptimize:
					s.OptimizeRuns = 1
				case stageRun:
					s.RunRuns = 1
				case stageTrace:
					s.TraceRuns = 1
					if tr, ok := v.(*tracefile.Trace); ok {
						s.TraceBytes = uint64(tr.Size())
					}
				}
				return s
			}
			// hit is what serving a value without executing adds beside s.
			hit := func(s Stats) Stats {
				if kind == stageTrace {
					s.TraceHits = 1
				}
				return s
			}
			// waiter looks key up while the test owns its entry in flight,
			// then settles the entry with v and err.
			waiter := func(key string, v any, err error) {
				e, owner := mem.memo.lookup(key)
				if !owner {
					t.Fatalf("%s has an entry", key)
				}
				got := make(chan error)
				go func() {
					_, err := lookup(mem, key, unreached)
					got <- err
				}()
				waitBlocked(t, "(*Runner).lookup")
				mem.memo.settle(e, v, err)
				if werr := <-got; werr != err {
					t.Errorf("the waiter got %v, want %v", werr, err)
				}
			}

			var residentKey, storedKey string
			for _, c := range []struct {
				name string
				rn   *Runner
				do   func() Stats // runs the outcome and returns what it must add
			}{
				{"executed", mem, func() Stats {
					key, execute := next()
					residentKey = key
					v, err := execute(mem)
					if err != nil {
						t.Fatal(err)
					}
					return ran(v)
				}},
				{"resident hit", mem, func() Stats {
					if _, err := lookup(mem, residentKey, unreached); err != nil {
						t.Fatal(err)
					}
					return hit(Stats{MemoHits: 1})
				}},
				{"executed failure", mem, func() Stats {
					key, _ := next()
					if _, err := lookup(mem, key, func() (any, error) { return nil, errStage }); err != errStage {
						t.Fatalf("got %v, want the stage's error", err)
					}
					s := ran(nil)
					s.StageErrors = 1
					return s
				}},
				{"panic", mem, func() Stats {
					key, _ := next()
					var pe *StagePanicError
					if _, err := lookup(mem, key, func() (any, error) { panic("stage panicked") }); !errors.As(err, &pe) {
						t.Fatalf("got %v, want a *StagePanicError", err)
					}
					s := ran(nil)
					s.StageErrors, s.StagePanics = 1, 1
					return s
				}},
				{"wait in flight", mem, func() Stats {
					key, _ := next()
					waiter(key, values[kind], nil)
					return hit(Stats{MemoHits: 1})
				}},
				{"wait on a failure", mem, func() Stats {
					key, _ := next()
					waiter(key, nil, errStage)
					return Stats{}
				}},
				{"missing record", disk, func() Stats {
					key, execute := next()
					storedKey = key
					v, err := execute(disk)
					if err != nil {
						t.Fatal(err)
					}
					s := ran(v)
					s.DiskMisses = 1
					return s
				}},
				{"disk hit", disk, func() Stats {
					if _, err := lookup(disk, storedKey, unreached); err != nil {
						t.Fatal(err)
					}
					return hit(Stats{DiskHits: 1})
				}},
				{"undecodable record", disk, func() Stats {
					key, execute := next()
					if err := records.Put(key, []byte("not a stage record")); err != nil {
						t.Fatal(err)
					}
					v, err := execute(disk)
					if err != nil {
						t.Fatal(err)
					}
					s := ran(v)
					s.StoreErrors = 1
					return s
				}},
				{"corrupt record", disk, func() Stats {
					key, execute := next()
					restore := faults.Activate(faults.New(1).TruncateAt(faults.SiteStorePut, 0))
					err := records.Put(key, []byte("a record torn in half"))
					restore()
					if err != nil {
						t.Fatal(err)
					}
					v, err := execute(disk)
					if err != nil {
						t.Fatal(err)
					}
					s := ran(v)
					s.DiskMisses, s.Quarantined = 1, 1
					return s
				}},
			} {
				// Every outcome starts from an empty memo on the disk runner,
				// so its lookups reach the store; the trim is not measured.
				disk.TrimMemo(0)
				before := c.rn.Stats()
				want := c.do()
				if got := c.rn.Stats().Delta(before); got != want {
					t.Errorf("%s: Stats grew by\n%+v, want\n%+v", c.name, got, want)
				}
			}
		})
	}
}

// TestMemoSettlesWhenCountingPanics checks that an owner settles its
// entry even if counting its lookup panics (here a trace stage whose
// value is not a trace), so a later lookup of the key never blocks.
func TestMemoSettlesWhenCountingPanics(t *testing.T) {
	rn := NewRunner(1)
	key := stageTrace + "|not-a-trace"
	func() {
		defer func() { recover() }()
		rn.lookup(stageTrace, key, func() (any, error) { return "not a trace", nil })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rn.lookup(stageTrace, key, func() (any, error) { return nil, errors.New("executed again") })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a later lookup blocked: the entry never settled")
	}
}
