package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// pipeline executes scenarios the way scenario.Runner does — trace
// capture, then the shared run beside the profile+solve leg, then the
// partitioned run — but by calling each layer's public entry point
// itself, with one span per call. A stage shared by several scenarios
// runs once (single flight by stage key), as in the runner's memo.
type pipeline struct {
	tr      *tracer
	workers int
	// persist, when set, is called after a stage completes with the
	// stage's store key (the durable write the runner would make).
	persist func(parent int, req, key string) error

	mu       sync.Mutex
	flights  map[string]*flight
	profiles []profiled      // distinct profile stages, in completion order
	traces   []capturedTrace // distinct captured traces
}

type flight struct {
	once sync.Once
	val  any
	err  error
}

// profiled is one profile stage's inputs and curves, kept for the
// solver and profiler probes.
type profiled struct {
	app    string
	trace  *tracefile.Trace
	name   string
	oc     core.OptimizeConfig
	curves []profile.Curve
}

type capturedTrace struct {
	app   string
	trace *tracefile.Trace
}

func newPipeline(tr *tracer, workers int) *pipeline {
	return &pipeline{tr: tr, workers: workers, flights: map[string]*flight{}}
}

func (p *pipeline) once(key string, f func() (any, error)) (any, error) {
	p.mu.Lock()
	fl := p.flights[key]
	if fl == nil {
		fl = &flight{}
		p.flights[key] = fl
	}
	p.mu.Unlock()
	fl.once.Do(func() { fl.val, fl.err = f() })
	return fl.val, fl.err
}

// appClass names the application family a workload belongs to in the
// per-layer metrics: the JPEG/Canny family or MPEG-2.
func appClass(workload string) string {
	if workload == "mpeg2" {
		return "mpeg2"
	}
	return "jpegcanny"
}

// run executes one scenario under the root span parent.
func (p *pipeline) run(parent int, req string, s scenario.Scenario) (outcome, error) {
	var (
		n    scenario.Scenario
		keys map[string]string
	)
	err := p.tr.do(parent, "scenario", "scenario.key", "", req, func(int, func(string, float64)) error {
		var err error
		if n, err = s.Normalize(); err != nil {
			return err
		}
		if _, err = n.Key(); err != nil {
			return err
		}
		keys, err = n.StageKeys()
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	if n.AllocWorkload != "" || n.Trace == scenario.TraceLive {
		return outcome{}, fmt.Errorf("pipeline: alloc_workload and live traces are not benchmarked")
	}
	app := appClass(n.Workload)
	pc, err := n.Platform.Config()
	if err != nil {
		return outcome{}, err
	}
	if pc.Engine, err = platform.ParseEngine(n.ExecEngine); err != nil {
		return outcome{}, err
	}
	solver, err := core.ParseSolver(n.Solver)
	if err != nil {
		return outcome{}, err
	}
	pe, err := profile.ParseEngine(n.ProfileEngine)
	if err != nil {
		return outcome{}, err
	}
	oc := core.OptimizeConfig{Platform: pc, Sizes: n.Sizes, Runs: n.Runs, Solver: solver,
		Engine: pe, Workers: p.workers, ProfileLevel: n.ProfileLevel}
	runPC := pc
	runPC.Sched.AllowMigration = n.Migration

	stored := func(id int, key string) error {
		if p.persist == nil {
			return nil
		}
		return p.persist(id, req, key)
	}
	trace := func(id int) (*tracefile.Trace, error) {
		v, err := p.once(keys["trace"], func() (any, error) {
			var live *core.App
			err := p.tr.do(id, "workloads", "workloads.factory", app, req, func(int, func(string, float64)) error {
				w, err := workloads.Build(n.Workload, workloads.BuildConfig{Scale: mustScale(n.Scale), Seed: n.Seed})
				if err != nil {
					return err
				}
				live, err = w.Factory()
				return err
			})
			if err != nil {
				return nil, err
			}
			var t *tracefile.Trace
			err = p.tr.do(id, "tracefile", "tracefile.capture", app, req, func(_ int, set func(string, float64)) error {
				var err error
				t, err = tracefile.CaptureApp(live, tracefile.Meta{Workload: n.Workload, Scale: n.Scale, Seed: n.Seed})
				if err == nil {
					set("trace_mb", float64(t.Size())/1e6)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.traces = append(p.traces, capturedTrace{app, t})
			p.mu.Unlock()
			return t, stored(id, keys["trace"])
		})
		if err != nil {
			return nil, err
		}
		return v.(*tracefile.Trace), nil
	}
	replay := func(id int, t *tracefile.Trace) (*core.App, error) {
		var a *core.App
		err := p.tr.do(id, "tracefile", "tracefile.replay_factory", app, req, func(int, func(string, float64)) error {
			var err error
			a, err = t.Workload(n.Workload).Factory()
			return err
		})
		return a, err
	}
	execute := func(id int, strat core.Strategy, alloc core.Allocation, key string) (*core.Result, error) {
		v, err := p.once(key, func() (any, error) {
			t, err := trace(id)
			if err != nil {
				return nil, err
			}
			a, err := replay(id, t)
			if err != nil {
				return nil, err
			}
			var res *core.Result
			err = p.tr.do(id, "platform", "platform.run", app+"."+strat.String(), req, func(_ int, set func(string, float64)) error {
				var err error
				res, err = core.RunApp(a, core.RunConfig{Platform: runPC, Strategy: strat, Alloc: alloc})
				if err == nil {
					pr := res.Platform
					set("instructions", float64(pr.TotalInstrs))
					set("makespan_cycles", float64(pr.Makespan))
					set("l2_accesses", float64(pr.L2.Accesses))
					set("l2_misses", float64(pr.L2.Misses))
					set("l2_writebacks", float64(pr.L2.Writebacks))
					set("bus_requests", float64(pr.BusStats.Requests))
					set("bus_posts", float64(pr.BusStats.Posts))
					set("bus_wait_cycles", float64(pr.BusStats.WaitCycles))
					set("rtos_switches", float64(pr.Switches))
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			return res, stored(id, key)
		})
		if err != nil {
			return nil, err
		}
		return v.(*core.Result), nil
	}
	profiles := func(id int) ([]profile.Curve, error) {
		v, err := p.once(keys["profile"], func() (any, error) {
			t, err := trace(id)
			if err != nil {
				return nil, err
			}
			var curves []profile.Curve
			err = p.tr.do(id, "profile", "core.profile", app, req, func(int, func(string, float64)) error {
				var err error
				curves, err = core.Profile(t.Workload(n.Workload), oc)
				return err
			})
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.profiles = append(p.profiles, profiled{app, t, n.Workload, oc, curves})
			p.mu.Unlock()
			return curves, stored(id, keys["profile"])
		})
		if err != nil {
			return nil, err
		}
		return v.([]profile.Curve), nil
	}
	optimize := func(id int) (*core.OptimizeResult, error) {
		v, err := p.once(keys["optimize"], func() (any, error) {
			curves, err := profiles(id)
			if err != nil {
				return nil, err
			}
			t, err := trace(id)
			if err != nil {
				return nil, err
			}
			a, err := replay(id, t)
			if err != nil {
				return nil, err
			}
			var opt *core.OptimizeResult
			err = p.tr.do(id, "solver", "solver."+n.Solver, app, req, func(int, func(string, float64)) error {
				var err error
				opt, err = core.OptimizeFromCurves(a, curves, oc)
				return err
			})
			if err != nil {
				return nil, err
			}
			return opt, stored(id, keys["optimize"])
		})
		if err != nil {
			return nil, err
		}
		return v.(*core.OptimizeResult), nil
	}

	out := outcome{Workload: n.Workload, Seed: n.Seed, Partition: n.Partition}
	switch n.Partition {
	case scenario.PartitionProfile:
		curves, err := profiles(parent)
		if err != nil {
			return out, err
		}
		out.Curves = curvesOut(curves)
	case scenario.PartitionShared:
		res, err := execute(parent, core.Shared, nil, keys["run.shared"])
		if err != nil {
			return out, err
		}
		out.Shared = runOutOfCore(res)
	case scenario.PartitionOptimized:
		var (
			wg     sync.WaitGroup
			shared *core.Result
			opt    *core.OptimizeResult
			errS   error
			errO   error
		)
		wg.Add(2)
		go func() { defer wg.Done(); shared, errS = execute(parent, core.Shared, nil, keys["run.shared"]) }()
		go func() { defer wg.Done(); opt, errO = optimize(parent) }()
		wg.Wait()
		if errS != nil {
			return out, errS
		}
		if errO != nil {
			return out, errO
		}
		part, err := execute(parent, core.Partitioned, opt.Allocation, keys["run.partitioned"])
		if err != nil {
			return out, err
		}
		out.Shared, out.Partitioned = runOutOfCore(shared), runOutOfCore(part)
		out.Allocation, out.Expected = opt.Allocation, opt.Expected
		out.MaxRelDiff = core.CompareExpectedSimulated(opt.Expected, part).MaxRelDiff
	default:
		return out, fmt.Errorf("pipeline: partition policy %q is not benchmarked", n.Partition)
	}
	return out, nil
}

func mustScale(s string) workloads.Scale {
	sc, err := workloads.ParseScale(s)
	if err != nil {
		// Normalize has already validated the scale.
		panic(err)
	}
	return sc
}
