package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tracefile"
)

// The probes below run after a traced pass, on what the pass produced.
// Each measures one layer entry point the pass does not isolate, or a
// layer the workload itself does not call, so that every layer is
// measured on every workload: decoding a stored trace, the profiler fed
// a recorded stream, both solvers on the same curves, the disk store,
// memo hits, the sweep and explore layers re-serving the results, and
// the server answering them.

// probeInputs is what the probes of a traced pass work on.
type probeInputs struct {
	rn    *scenario.Runner // holds every spec's result
	specs []scenario.Scenario
	want  []outcome   // the specs' cold results
	sweep sweep.Sweep // the results re-served through sweep and explore
	// hitReps and serveReps are how many times each spec is looked up
	// by the memo-hit probes and served by the serve probes.
	hitReps, serveReps int
	// storeDir, when set, is where the store probe writes the pass's
	// traces: the workloads whose runners are memory-only.
	storeDir string
}

// probe runs every probe under one root span named "probe".
func (p *pipeline) probe(in probeInputs, extra map[string]float64) error {
	return p.tr.root("probe", "probe", func(root int) error {
		for _, f := range []func(int) error{p.probeDecode, p.probeSolvers, p.probeObserve} {
			if err := f(root); err != nil {
				return err
			}
		}
		if in.storeDir != "" {
			if err := p.probeStore(root, in.storeDir, extra); err != nil {
				return err
			}
		}
		if err := probeHits(p.tr, root, in.rn, in.specs, in.want, in.hitReps); err != nil {
			return err
		}
		if err := probeSweep(p.tr, root, in.rn, in.sweep, extra); err != nil {
			return err
		}
		return probeServe(p.tr, root, in.rn, in.specs, in.want, in.serveReps, extra)
	})
}

// probeStore writes every trace the pass captured to a fresh disk store
// and reads it back: the store layer on the workload's largest stage
// records.
func (p *pipeline) probeStore(root int, dir string, extra map[string]float64) error {
	dir, err := os.MkdirTemp(dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	var size int
	for i, t := range p.traces {
		key := fmt.Sprintf("trace|%s|%d", t.app, i)
		data := t.trace.Bytes()
		size += len(data)
		err := p.tr.do(root, "store", "store.put", "", "probe", func(int, func(string, float64)) error {
			return d.Put(key, data)
		})
		if err != nil {
			return err
		}
		err = p.tr.do(root, "store", "store.get", "", "probe", func(int, func(string, float64)) error {
			got, err := d.Get(key)
			if err == nil && !bytes.Equal(got, data) {
				err = fmt.Errorf("probe: trace record %s read back differently", key)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	extra["store.records"] = float64(len(p.traces))
	extra["store.mb"] = float64(size) / 1e6
	return nil
}

// specSweep is the sweep whose points are specs: one axis for each of
// workload, partition and seed whose value varies, over specs[0]. specs
// must be the full cross product of those values.
func specSweep(name string, specs []scenario.Scenario) sweep.Sweep {
	var axes []sweep.Axis
	for _, field := range []string{"workload", "partition", "seed"} {
		seen := map[string]bool{}
		var values []json.RawMessage
		for _, s := range specs {
			var v any
			switch field {
			case "workload":
				v = s.Workload
			case "partition":
				v = s.Partition
			default:
				v = s.Seed
			}
			raw, _ := json.Marshal(v)
			if !seen[string(raw)] {
				seen[string(raw)] = true
				values = append(values, raw)
			}
		}
		if len(values) > 1 {
			axes = append(axes, sweep.Axis{Name: field, Field: field, Values: values})
		}
	}
	base := specs[0]
	base.Name = ""
	return sweep.Sweep{Name: name, Base: base, Axes: axes}
}

// probeSweep re-serves the results through the sweep and explore
// layers on the warm runner: sweep.Execute, the aggregation over its
// points, and explore.Run to convergence, all from the memo.
func probeSweep(tr *tracer, root int, rn *scenario.Runner, sw sweep.Sweep, extra map[string]float64) error {
	var res *sweep.Result
	err := tr.do(root, "sweep", "sweep.execute", "", "probe", func(int, func(string, float64)) error {
		var err error
		res, err = sweep.Execute(context.Background(), rn, sw, nil)
		switch {
		case err != nil:
			return err
		case res.Failed != 0 || res.Canceled != 0 || res.Stats.StageRuns != 0:
			return fmt.Errorf("probe: warm sweep: %d failed, %d canceled, %d stages run", res.Failed, res.Canceled, res.Stats.StageRuns)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = tr.do(root, "sweep", "sweep.aggregate", "", "probe", func(int, func(string, float64)) error {
		pairs := sw.Pareto
		if len(pairs) == 0 {
			pairs = sweep.DefaultPareto()
		}
		for _, pr := range pairs {
			sweep.ComputeParetoFront(res.Points, pr)
		}
		sweep.ComputeSensitivity(sw, res.Points)
		return nil
	})
	if err != nil {
		return err
	}
	return tr.do(root, "explore", "explore.run", "", "probe", func(int, func(string, float64)) error {
		ex := explore.Explore{Name: sw.Name, Sweep: sw}
		got, err := explore.Run(context.Background(), rn, ex, explore.Options{}, nil)
		if err == nil {
			extra["explore.visited"] = float64(got.Visited)
		}
		return checkFronts(res, got, err)
	})
}

// probeServe serves each spec through a serve.Server over the warm
// runner: in-process through Server.ServeHTTP (serve.handler), then the
// same request over loopback (serve.loopback). Every reply must equal
// the spec's cold result.
func probeServe(tr *tracer, root int, rn *scenario.Runner, specs []scenario.Scenario, want []outcome, reps int, extra map[string]float64) error {
	s, err := startServer(rn)
	if err != nil {
		return err
	}
	defer s.close()
	counts := &serveCounts{}
	defer func() {
		extra["serve.requests"] += float64(counts.requests)
		extra["serve.shed"] += float64(counts.shed)
		extra["serve.incomplete"] += float64(counts.incomplete)
	}()
	same := func(i int, rep reply, err error) error {
		if err == nil && digestOf(rep.out) != digestOf(want[i]) {
			err = fmt.Errorf("probe: served %s differs from its cold result", specs[i].Workload)
		}
		return err
	}
	for r := 0; r < reps; r++ {
		for i, spec := range specs {
			body := batchBody(spec)
			req := fmt.Sprintf("serve-%d-%d", r, i)
			err := tr.do(root, "serve", "serve.handler", "", req, func(int, func(string, float64)) error {
				rec := httptest.NewRecorder()
				s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("probe: in-process status %d", rec.Code)
				}
				rep, err := decodeStream(rec.Body)
				return same(i, rep, err)
			})
			if err != nil {
				return err
			}
			err = tr.do(root, "serve", "serve.loopback", "", req, func(int, func(string, float64)) error {
				rep, err := s.post(body)
				counts.add(rep)
				return same(i, rep, err)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeDecode decodes every captured trace from its encoded bytes, the
// work a trace read from the store costs.
func (p *pipeline) probeDecode(root int) error {
	for _, t := range p.traces {
		err := p.tr.do(root, "tracefile", "tracefile.decode", t.app, "probe", func(int, func(string, float64)) error {
			_, err := tracefile.Decode(t.trace.Bytes())
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSolvers runs both solvers on the curves of every profile stage
// of the pass.
func (p *pipeline) probeSolvers(root int) error {
	for _, pr := range p.profiles {
		for _, s := range []core.Solver{core.SolverMCKP, core.SolverILP} {
			a, err := pr.trace.Workload(pr.name).Factory()
			if err != nil {
				return err
			}
			oc := pr.oc
			oc.Solver = s
			err = p.tr.do(root, "solver", "solver."+s.String(), pr.app, "probe", func(int, func(string, float64)) error {
				_, err := core.OptimizeFromCurves(a, pr.curves, oc)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeObserve records the L2-bound access stream of one shared run per
// application (the stream core.Profile taps through RunConfig.L2Observer)
// and times the stack-distance profiler alone on it: profile.New, then
// Observe for every access, then Curves.
func (p *pipeline) probeObserve(root int) error {
	seen := map[string]bool{}
	for _, pr := range p.profiles {
		if seen[pr.app] {
			continue
		}
		seen[pr.app] = true
		a, err := pr.trace.Workload(pr.name).Factory()
		if err != nil {
			return err
		}
		entities := a.Entities()
		names := make([]string, len(entities))
		regionOf := map[mem.RegionID]int{}
		for i, e := range entities {
			names[i] = e.Name
			for _, r := range e.Regions {
				regionOf[r] = i
			}
		}
		var (
			lines []uint64
			tags  []uint32 // region id, write flag in the top bit
		)
		rc := core.RunConfig{
			Platform: pr.oc.Platform, Strategy: core.Shared, ObserveLevel: pr.oc.ProfileLevel,
			L2Observer: func(line uint64, write bool, region mem.RegionID) {
				tag := uint32(region)
				if write {
					tag |= 1 << 31
				}
				lines = append(lines, line)
				tags = append(tags, tag)
			},
		}
		err = p.tr.do(root, "platform", "platform.record", pr.app, "probe", func(int, func(string, float64)) error {
			_, err := core.RunApp(a, rc)
			return err
		})
		if err != nil {
			return err
		}
		if pr.oc.ProfileLevel != "" {
			return fmt.Errorf("probe: profile_level is not benchmarked")
		}
		geom := pr.oc.Platform.PartitionGeom()
		cfg := profile.Config{Sizes: pr.oc.Sizes, UnitSets: rtos.AllocUnit, Ways: geom.Ways, LineSize: geom.LineSize, Engine: pr.oc.Engine}
		err = p.tr.do(root, "profile", "profile.observe", pr.app, "probe", func(_ int, set func(string, float64)) error {
			prof, err := profile.New(cfg, names, regionOf)
			if err != nil {
				return err
			}
			for i, line := range lines {
				prof.Observe(line, tags[i]>>31 == 1, mem.RegionID(tags[i]&^(1<<31)))
			}
			prof.Curves()
			set("accesses", float64(len(lines)))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeHits times warm lookups on a runner that already holds the
// specs' results: Runner.Run served from the decoded memo
// (scenario.hit), and Runner.Run right after TrimMemo, which drops the
// decoded values so the stage documents are decoded again
// (scenario.decode_hit) — what every warm serve request pays. Each
// result must match the cold outcome.
func probeHits(tr *tracer, root int, rn *scenario.Runner, specs []scenario.Scenario, want []outcome, reps int) error {
	check := func(name string, i int, res *scenario.Result, err error) error {
		if err != nil {
			return err
		}
		got, err := outcomeOf(res)
		if err != nil {
			return err
		}
		if digestOf(got) != digestOf(want[i]) {
			return fmt.Errorf("probe: %s of %s differs from the cold result", name, specs[i].Workload)
		}
		return nil
	}
	// Decode every result once, so the first timed hits find them.
	for i, s := range specs {
		res, err := rn.Run(s)
		if err := check("warm-up", i, res, err); err != nil {
			return err
		}
	}
	for _, name := range []string{"scenario.hit", "scenario.decode_hit"} {
		for r := 0; r < reps; r++ {
			for i, s := range specs {
				var res *scenario.Result
				err := tr.do(root, "scenario", name, "", "probe", func(int, func(string, float64)) error {
					if name == "scenario.decode_hit" {
						rn.TrimMemo(1 << 20)
					}
					var err error
					res, err = rn.Run(s)
					return err
				})
				if err := check(name, i, res, err); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
