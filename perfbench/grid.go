package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Each grid-small pass times warmOpsPerPass warm operations of
// sweepsPerWarmOp re-executions of the sweep each. One re-execution
// takes about 2.5 ms, short enough for a garbage collection to double
// it, so an operation batches ten to keep collections out of the tail.
// The 600 re-executions allocate the same at every seed (about 1.5 MB
// each), which keeps the ILP solver's seed-dependent share of alloc_mb
// (20 to 250 MB per cold sweep over the seeds measured) from dominating
// it.
const (
	warmOpsPerPass  = 60
	sweepsPerWarmOp = 10
)

// checkSweep requires every point of a sweep to have run.
func checkSweep(r *sweep.Result, err error) error {
	switch {
	case err != nil:
		return err
	case r.Executed != 32 || r.Failed != 0 || r.Canceled != 0:
		return fmt.Errorf("sweep executed %d of 32 points, %d failed, %d canceled", r.Executed, r.Failed, r.Canceled)
	}
	return nil
}

// checkFronts requires the exploration to converge on exactly the
// exhaustive sweep's Pareto fronts in objective space. A space small
// enough to be visited whole ends exhausted instead of converged.
func checkFronts(exact *sweep.Result, got *explore.Result, err error) error {
	if err != nil {
		return err
	}
	if !(got.Converged || got.Exhausted) || got.Failed != 0 {
		return fmt.Errorf("explore converged=%v exhausted=%v with %d failed points", got.Converged, got.Exhausted, got.Failed)
	}
	exactM := map[int]*sweep.Metrics{}
	for i := range exact.Points {
		exactM[exact.Points[i].Index] = exact.Points[i].Metrics
	}
	gotM := map[int]*sweep.Metrics{}
	for i := range got.Points {
		if got.Points[i].Rung == 0 {
			gotM[got.Points[i].Index] = got.Points[i].Metrics
		}
	}
	if len(exact.Pareto) != len(got.Pareto) {
		return fmt.Errorf("explore found %d fronts, the sweep %d", len(got.Pareto), len(exact.Pareto))
	}
	for i := range exact.Pareto {
		want, have := frontValues(exact.Pareto[i], exactM), frontValues(got.Pareto[i], gotM)
		if !slices.Equal(want, have) {
			return fmt.Errorf("front %s/%s: explore %v, sweep %v", exact.Pareto[i].X, exact.Pareto[i].Y, have, want)
		}
	}
	return nil
}

// gridSweep sweeps the grid on a fresh runner; the result is nil when
// the sweep failed its check.
func gridSweep(b *bench, sw sweep.Sweep, rn *scenario.Runner) (*sweep.Result, time.Duration) {
	t := time.Now()
	res, err := sweep.Execute(context.Background(), rn, sw, nil)
	d := time.Since(t)
	if !b.ck.op("sweep", checkSweep(res, err)) {
		return nil, d
	}
	return res, d
}

// gridExplore explores the grid to convergence on a fresh runner and
// checks the fronts against the sweep's. How many points the search
// visits depends on the seed's landscape (17 to 29 over seeds 0-9), so
// the exploration is timed for the report and the traced pass but kept
// out of cold_s and alloc_mb, whose work must not change with the seed.
func gridExplore(b *bench, ex explore.Explore, rn *scenario.Runner, sres *sweep.Result) (*explore.Result, time.Duration) {
	t := time.Now()
	res, err := explore.Run(context.Background(), rn, ex, explore.Options{}, nil)
	d := time.Since(t)
	if sres == nil && err == nil {
		err = fmt.Errorf("no sweep to compare the fronts with")
	}
	if err == nil {
		err = checkFronts(sres, res, err)
	}
	if !b.ck.op("explore fronts equal the sweep's", err) {
		return nil, d
	}
	return res, d
}

// gridEnv is the grid's inputs and two fresh memory-only runners: one
// for the sweep, one for the exploration.
type gridEnv struct {
	sw       sweep.Sweep
	ex       explore.Explore
	rnS, rnE *scenario.Runner
}

func openGridEnv(b *bench) (*gridEnv, error) {
	sw, ex, err := gridInputs(b.seed)
	if err != nil {
		return nil, err
	}
	return &gridEnv{sw, ex, scenario.NewRunner(workers), scenario.NewRunner(workers)}, nil
}

func (e *gridEnv) close() {
	e.rnS.Close()
	e.rnE.Close()
}

// gridPass is one untraced grid-small pass: the sweep on a fresh runner
// (the cold phase), warm re-executions of the sweep on the same runner,
// then the exploration to convergence on another fresh runner.
func gridPass(b *bench) (*passResult, error) {
	env, setups, err := timedSetup(func() (*gridEnv, error) { return openGridEnv(b) }, (*gridEnv).close)
	if err != nil {
		return nil, err
	}
	sw, ex, rnS, rnE := env.sw, env.ex, env.rnS, env.rnE
	p := &passResult{setup: setups, named: newSamples()}

	settle()
	m0 := memSnapshot()
	sres, sweepD := gridSweep(b, sw, rnS)
	p.cold = sweepD
	p.named.add("sweep_points_per_s", "points/s", 32/sec(sweepD))
	p.digest = "failed"
	if sres != nil {
		p.digest = digestOf(sweepOut(sres))
	}
	for k := 0; k < warmOpsPerPass && sres != nil; k++ {
		var (
			results []*sweep.Result
			err     error
		)
		t := time.Now()
		for j := 0; j < sweepsPerWarmOp && err == nil; j++ {
			var wres *sweep.Result
			wres, err = sweep.Execute(context.Background(), rnS, sw, nil)
			results = append(results, wres)
		}
		d := time.Since(t)
		for _, wres := range results {
			if err = checkSweep(wres, err); err != nil {
				break
			}
			if wres.Stats.StageRuns != 0 {
				err = fmt.Errorf("warm sweep ran %d stages", wres.Stats.StageRuns)
			} else if digestOf(sweepOut(wres)) != p.digest {
				err = fmt.Errorf("warm sweep differs from the cold sweep")
			}
		}
		if b.ck.op("warm sweeps", err) {
			p.warm = append(p.warm, d)
		}
	}
	m1 := memSnapshot()
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.live = liveHeap()

	// The exploration runs in the first pass only, which leaves the
	// window to the sweep: more cold samples per run.
	if b.pass == 1 {
		eres, exploreD := gridExplore(b, ex, rnE, sres)
		p.named.add("explore_s", "s", sec(exploreD))
		if eres != nil {
			p.named.add("explore_visited", "points", float64(eres.Visited))
		}
	}
	env.close()
	return p, nil
}

// gridTraced is the traced grid-small pass: an untraced sweep and
// exploration (the overhead baseline), the sweep's points through the
// layers directly, two at a time as the runner's pool runs them, then
// the probes; the sweep probe is the warm sweep, its aggregation and
// the exploration on the warm runner.
func gridTraced(b *bench) (*tracedResult, error) {
	sw, ex, err := gridInputs(b.seed)
	if err != nil {
		return nil, err
	}
	rnS, rnE := scenario.NewRunner(workers), scenario.NewRunner(workers)
	defer rnS.Close()
	defer rnE.Close()
	extra := map[string]float64{}
	named := newSamples()

	settle()
	m0 := memSnapshot()
	sres, untraced := gridSweep(b, sw, rnS)
	m1 := memSnapshot()
	addGC(extra, m0.NumGC, m1.NumGC, m0.PauseTotalNs, m1.PauseTotalNs)
	eres, _ := gridExplore(b, ex, rnE, sres)
	if sres == nil || eres == nil {
		return nil, fmt.Errorf("grid-small: the untraced sweep or exploration failed")
	}
	addStats(extra, "cold", sres.Stats)

	points, _, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	specs := make([]scenario.Scenario, len(points))
	for i, pt := range points {
		specs[i] = pt.Scenario
	}
	// The runner's results of every point (memo hits) are what the
	// traced pass must reproduce.
	want := make([]outcome, len(specs))
	for i, s := range specs {
		res, err := rnS.Run(s)
		if err == nil {
			want[i], err = outcomeOf(res)
		}
		if err != nil {
			return nil, err
		}
	}

	tr := newTracer()
	p := newPipeline(tr, workers)
	t := time.Now()
	outs := make([]outcome, len(specs))
	closedLoop(len(specs), workers, func(i int) {
		req := fmt.Sprintf("point-%d", i)
		err := tr.root("point", req, func(root int) error {
			var err error
			outs[i], err = p.run(root, req, specs[i])
			return err
		})
		if err == nil && digestOf(outs[i]) != digestOf(want[i]) {
			err = fmt.Errorf("traced point %d differs from the runner's result", i)
		}
		b.ck.op("traced point", err)
	})
	tracedWall := time.Since(t)
	extra["trace.overhead_ms"] = ms(tracedWall - untraced)
	named.add("untraced_sweep_s", "s", sec(untraced))
	named.add("traced_sweep_s", "s", sec(tracedWall))

	wres, err := sweep.Execute(context.Background(), rnS, sw, nil)
	if b.ck.op("warm sweep", checkSweep(wres, err)) {
		addStats(extra, "warm", wres.Stats)
	}

	// The grid holds 2jpeg+canny alone; its base point with mpeg2 gives
	// the mpeg2 layer metrics.
	mp := sw.Base
	mp.Workload = "mpeg2"
	err = tr.root("probe", "mpeg2", func(root int) error {
		out, err := p.run(root, "mpeg2", mp)
		addModel(extra, append(want, out))
		return err
	})
	b.ck.op("mpeg2 probe", err)
	b.ck.op("probes", p.probe(probeInputs{
		rn: rnS, specs: specs, want: want, hitReps: 3, serveReps: 4,
		sweep: sw, storeDir: b.tmp,
	}, extra))
	spans := tr.snapshot()
	return &tracedResult{layer: layerValues(spans, extra), spans: spans, named: named}, nil
}
