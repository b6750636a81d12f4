package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Every input the program receives is generated here from the seed
// argument: the study specs, the grid spec (written out in grid.json,
// so a change to the program's built-in paper-grid cannot change the
// workload silently), the serve spec pool and the request order.

// rng is splitmix64: small, seedable and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// The paper's two studies at paper scale, each run alone: 2jpeg+canny
// first, then mpeg2. Seed 0 is the paper's canonical workload.
func studySpecs(seed uint64) []scenario.Scenario {
	mk := func(name, workload string) scenario.Scenario {
		return scenario.Scenario{
			Name:      name,
			Workload:  workload,
			Scale:     "paper",
			Seed:      seed,
			Partition: scenario.PartitionOptimized,
		}
	}
	return []scenario.Scenario{mk("jpegcanny", "2jpeg+canny"), mk("mpeg2", "mpeg2")}
}

//go:embed grid.json
var gridSpec []byte

// gridInputs returns the 32-point design-space grid over 2jpeg+canny at
// small scale with the seed applied to its base scenario, and the
// exploration of the same space (unbounded budget, run to convergence).
func gridInputs(seed uint64) (sweep.Sweep, explore.Explore, error) {
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(gridSpec, &spec); err != nil {
		return sweep.Sweep{}, explore.Explore{}, fmt.Errorf("grid.json: %w", err)
	}
	var base map[string]any
	if err := json.Unmarshal(spec["base"], &base); err != nil {
		return sweep.Sweep{}, explore.Explore{}, fmt.Errorf("grid.json base: %w", err)
	}
	base["seed"] = seed
	spec["base"], _ = json.Marshal(base)
	raw, _ := json.Marshal(spec)
	sw, err := sweep.Parse(raw, nil)
	if err != nil {
		return sweep.Sweep{}, explore.Explore{}, err
	}
	ex := explore.Explore{Name: sw.Name, Sweep: sw, Strategy: explore.Strategy{Seed: seed}}
	return sw, ex, nil
}

// servePool is the serve-batch input: single-scenario /v1/batch bodies
// over {jpeg1-only, mpeg2, 2jpeg+canny} × {shared, optimized, profile}
// × three seeds derived from the argument, the cold order (each spec
// once) and the warm draws.
//
// The cold order is fixed — every shared spec, then every optimized
// one, then every profile one — so the cold phase runs the same
// schedule at every seed: which request pays for a stage its siblings
// share, and how evenly the two clients stay busy, does not depend on
// the seed; only the input data do. The warm draws are seeded.
type servePool struct {
	specs  []scenario.Scenario
	bodies [][]byte
	cold   []int
	warm   []int
}

func serveInputs(seed uint64, warm int) servePool {
	r := &rng{s: seed}
	seeds := []uint64{r.next() & 0xffffffff, r.next() & 0xffffffff, r.next() & 0xffffffff}
	var p servePool
	for _, part := range []string{scenario.PartitionShared, scenario.PartitionOptimized, scenario.PartitionProfile} {
		for _, s := range seeds {
			for _, w := range []string{"jpeg1-only", "mpeg2", "2jpeg+canny"} {
				spec := scenario.Scenario{Workload: w, Scale: "small", Seed: s, Partition: part, Runs: 1}
				body, _ := json.Marshal(map[string][]scenario.Scenario{"scenarios": {spec}})
				p.cold = append(p.cold, len(p.specs))
				p.specs = append(p.specs, spec)
				p.bodies = append(p.bodies, body)
			}
		}
	}
	p.warm = make([]int, warm)
	for i := range p.warm {
		p.warm[i] = r.intn(len(p.specs))
	}
	return p
}
