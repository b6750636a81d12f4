package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// restartsPerPass is how many warm restarts each study-paper pass
// times; over three passes that gives the tail percentile more than ten
// samples beyond it.
const restartsPerPass = 100

// openStudyRunner opens a runner backed by the disk store in dir, as
// `compmem -store-dir` does.
func openStudyRunner(dir string) (*scenario.Runner, error) {
	d, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return scenario.NewRunnerWithStore(workers, store.NewResilient(d, store.ResilientOptions{})), nil
}

// studyEnv is a fresh disk store in a temporary directory and a runner
// over it.
type studyEnv struct {
	dir string
	rn  *scenario.Runner
}

func openStudyEnv(b *bench) (*studyEnv, error) {
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}
	rn, err := openStudyRunner(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &studyEnv{dir, rn}, nil
}

func (e *studyEnv) close() {
	e.closeRunner()
	os.RemoveAll(e.dir)
}

// closeRunner closes the runner and drops it, so the collector can free
// its memo.
func (e *studyEnv) closeRunner() {
	if e.rn != nil {
		e.rn.Close()
		e.rn = nil
	}
}

// coldStudies runs each study alone on rn and returns the outcomes and
// each study's wall time.
func coldStudies(b *bench, rn *scenario.Runner, specs []scenario.Scenario) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(specs))
	durs := make([]time.Duration, len(specs))
	for i, s := range specs {
		t := time.Now()
		res, err := rn.Run(s)
		durs[i] = time.Since(t)
		if err == nil {
			outs[i], err = outcomeOf(res)
		}
		b.ck.op("cold study "+s.Workload, err)
	}
	return outs, durs
}

// restart re-serves the studies on a fresh runner over the populated
// store. No stage may run, every stage lookup must be a disk hit, and
// the results must equal the cold ones.
func restart(dir string, specs []scenario.Scenario, want []outcome) (time.Duration, scenario.Stats, error) {
	t := time.Now()
	rn, err := openStudyRunner(dir)
	if err != nil {
		return 0, scenario.Stats{}, err
	}
	defer rn.Close()
	var results []*scenario.Result
	for _, s := range specs {
		res, err := rn.Run(s)
		if err != nil {
			return 0, scenario.Stats{}, err
		}
		results = append(results, res)
	}
	d := time.Since(t)
	st := rn.Stats()
	for i, res := range results {
		got, err := outcomeOf(res)
		if err != nil {
			return d, st, err
		}
		if digestOf(got) != digestOf(want[i]) {
			return d, st, fmt.Errorf("restarted %s differs from the cold result", specs[i].Workload)
		}
	}
	// An optimized study looks up three stages: the shared run, the
	// optimize stage and the partitioned run.
	if st.StageRuns != 0 || st.MemoHits != 0 || st.DiskMisses != 0 || st.DiskHits != uint64(3*len(specs)) {
		return d, st, fmt.Errorf("restart ran %d stages with %d memo hits, %d disk hits, %d disk misses; want only %d disk hits",
			st.StageRuns, st.MemoHits, st.DiskHits, st.DiskMisses, 3*len(specs))
	}
	return d, st, nil
}

// studyPass is one untraced study-paper pass: a fresh disk-backed
// runner, the cold studies, then warm restarts over the populated store.
func studyPass(b *bench) (*passResult, error) {
	var specs []scenario.Scenario
	env, setups, err := timedSetup(func() (*studyEnv, error) {
		specs = studySpecs(b.seed)
		return openStudyEnv(b)
	}, (*studyEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	p := &passResult{setup: setups, named: newSamples()}

	settle()
	m0 := memSnapshot()
	outs, durs := coldStudies(b, env.rn, specs)
	for i, d := range durs {
		p.cold += d
		p.named.add(specs[i].Name+"_cold_s", "s", sec(d))
	}
	// The live heap is read with the cold runner open. Then the runner is
	// closed, as a restarted process would not hold it, and the restarts
	// run on the heap a fresh process would have.
	p.live = liveHeap()
	env.closeRunner()
	settle()
	dir := env.dir
	for k := 0; k < restartsPerPass; k++ {
		d, _, err := restart(dir, specs, outs)
		if b.ck.op("restart", err) {
			p.warm = append(p.warm, d)
		}
	}
	m1 := memSnapshot()
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.digest = digestOf(outs)
	addModelNotes(b, outs)
	return p, nil
}

// addModelNotes prints the simulated miss reductions beside the paper's.
func addModelNotes(b *bench, outs []outcome) {
	if b.modelNoted {
		return
	}
	b.modelNoted = true
	extra := map[string]float64{}
	addModel(extra, outs)
	b.note("model (simulated at this seed): 2jpeg+canny %.2fx fewer misses (paper 5x, %+.1f%%), mpeg2 %.2fx (paper 6.5x, %+.1f%%), max compositionality error %.2f%%; the model is otherwise unvalidated",
		extra["model.jpegcanny_miss_ratio"], extra["model.jpegcanny_err_pct"],
		extra["model.mpeg2_miss_ratio"], extra["model.mpeg2_err_pct"], 100*extra["model.max_rel_diff"])
}

// studyTraced is the traced study-paper pass. After an untraced cold
// pass (the overhead baseline, which also populates the store) and a
// restart, it reads every stage record back (store.get), runs both
// studies through the layers directly, writing each stage's record to
// a fresh store as the runner does (store.put), and then probes.
func studyTraced(b *bench) (*tracedResult, error) {
	specs := studySpecs(b.seed)
	env, err := openStudyEnv(b)
	if err != nil {
		return nil, err
	}
	defer env.close()
	dir, rn := env.dir, env.rn
	extra := map[string]float64{}
	named := newSamples()

	settle()
	m0 := memSnapshot()
	outs, durs := coldStudies(b, rn, specs)
	var untraced time.Duration
	for _, d := range durs {
		untraced += d
	}
	addStats(extra, "cold", rn.Stats())
	_, warmStats, err := restart(dir, specs, outs)
	b.ck.op("restart", err)
	addStats(extra, "warm", warmStats)
	m1 := memSnapshot()
	addGC(extra, m0.NumGC, m1.NumGC, m0.PauseTotalNs, m1.PauseTotalNs)
	addModel(extra, outs)
	addModelNotes(b, outs)

	tr := newTracer()
	records := map[string][]byte{}
	err = tr.root("probe", "records", func(root int) error {
		disk, err := store.OpenDisk(dir)
		if err != nil {
			return err
		}
		for _, s := range specs {
			keys, err := s.StageKeys()
			if err != nil {
				return err
			}
			labels := make([]string, 0, len(keys))
			for l := range keys {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				key := keys[l]
				err := tr.do(root, "store", "store.get", "", s.Name, func(_ int, set func(string, float64)) error {
					rec, err := disk.Get(key)
					if err != nil {
						return fmt.Errorf("stage record %s of %s: %w", l, s.Workload, err)
					}
					records[key] = rec
					return nil
				})
				if !b.ck.op("stage record read back", err) {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var size int
	for _, rec := range records {
		size += len(rec)
	}
	extra["store.records"] = float64(len(records))
	extra["store.mb"] = float64(size) / 1e6

	dir2, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	disk2, err := store.OpenDisk(dir2)
	if err != nil {
		return nil, err
	}
	p := newPipeline(tr, workers)
	p.persist = func(parent int, req, key string) error {
		return tr.do(parent, "store", "store.put", "", req, func(int, func(string, float64)) error {
			return disk2.Put(key, records[key])
		})
	}
	t := time.Now()
	touts := make([]outcome, len(specs))
	for i, s := range specs {
		err := tr.root("study", s.Name, func(root int) error {
			var err error
			touts[i], err = p.run(root, s.Name, s)
			return err
		})
		if err == nil && digestOf(touts[i]) != digestOf(outs[i]) {
			err = fmt.Errorf("traced %s differs from the runner's result", s.Workload)
		}
		b.ck.op("traced study "+s.Workload, err)
	}
	tracedWall := time.Since(t)
	extra["trace.overhead_ms"] = ms(tracedWall - untraced)
	named.add("untraced_cold_s", "s", sec(untraced))
	named.add("traced_cold_s", "s", sec(tracedWall))

	b.ck.op("probes", p.probe(probeInputs{
		rn: rn, specs: specs, want: outs, hitReps: 20, serveReps: 50,
		sweep: specSweep("studies", specs),
	}, extra))
	spans := tr.snapshot()
	return &tracedResult{layer: layerValues(spans, extra), spans: spans, named: named}, nil
}
