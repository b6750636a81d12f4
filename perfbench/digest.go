package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// The digests cover simulated outputs only — per-entity accesses and
// misses, makespans, allocations, expected misses and miss curves —
// never timings or content keys, so every pass of a run must produce
// the same digest, and the default seed's digest must equal the
// reference in reference.json.

type entityOut struct {
	Name     string `json:"name"`
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

type runOut struct {
	Makespan uint64      `json:"makespan"`
	Entities []entityOut `json:"entities"`
}

type curveOut struct {
	Entity   string    `json:"entity"`
	Sizes    []int     `json:"sizes"`
	Misses   []float64 `json:"misses"`
	Accesses float64   `json:"accesses"`
}

// outcome is the digestible part of one scenario's result. It is built
// either from a scenario.Result (the runner and the server) or from the
// layer calls of a traced pass, and the two must agree.
type outcome struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Partition   string             `json:"partition"`
	Shared      *runOut            `json:"shared,omitempty"`
	Partitioned *runOut            `json:"partitioned,omitempty"`
	Allocation  map[string]int     `json:"allocation,omitempty"`
	Expected    map[string]float64 `json:"expected,omitempty"`
	Curves      []curveOut         `json:"curves,omitempty"`
	MaxRelDiff  float64            `json:"max_rel_diff,omitempty"`
}

func (o *outcome) missRatio() float64 {
	if o.Shared == nil || o.Partitioned == nil {
		return 0
	}
	var s, p uint64
	for _, e := range o.Shared.Entities {
		s += e.Misses
	}
	for _, e := range o.Partitioned.Entities {
		p += e.Misses
	}
	if p == 0 {
		return 0
	}
	return float64(s) / float64(p)
}

func runOutOfSummary(r *scenario.RunSummary) *runOut {
	if r == nil {
		return nil
	}
	o := &runOut{Makespan: r.Makespan}
	for _, e := range r.Entities {
		o.Entities = append(o.Entities, entityOut{e.Name, e.Accesses, e.Misses})
	}
	return o
}

func runOutOfCore(r *core.Result) *runOut {
	o := &runOut{Makespan: r.Platform.Makespan}
	for _, e := range r.Entities {
		o.Entities = append(o.Entities, entityOut{e.Name, e.Accesses, e.Misses})
	}
	return o
}

func curvesOut(cs []profile.Curve) []curveOut {
	out := make([]curveOut, len(cs))
	for i, c := range cs {
		out[i] = curveOut{c.Entity, c.Sizes, c.Misses, c.Accesses}
	}
	return out
}

// outcomeOf converts a scenario result; a result carrying an error is
// reported as one.
func outcomeOf(r *scenario.Result) (outcome, error) {
	if r == nil {
		return outcome{}, fmt.Errorf("no result")
	}
	if r.Error != "" {
		return outcome{}, fmt.Errorf("result error: %s", r.Error)
	}
	o := outcome{
		Workload:    r.Scenario.Workload,
		Seed:        r.Scenario.Seed,
		Partition:   r.Scenario.Partition,
		Shared:      runOutOfSummary(r.Shared),
		Partitioned: runOutOfSummary(r.Partitioned),
	}
	if r.Optimize != nil {
		o.Allocation, o.Expected = r.Optimize.Allocation, r.Optimize.Expected
	}
	for _, c := range r.Curves {
		o.Curves = append(o.Curves, curveOut{c.Entity, c.Sizes, c.Misses, c.Accesses})
	}
	if r.Compose != nil {
		o.MaxRelDiff = r.Compose.MaxRelDiff
	}
	return o, nil
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Digest inputs are plain structs of numbers, strings, slices
		// and maps; marshaling cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// sweepOut is the digestible part of a sweep: every point's metrics in
// index order and the Pareto fronts.
func sweepOut(r *sweep.Result) any {
	ms := make([]*sweep.Metrics, len(r.Points))
	for i := range r.Points {
		ms[i] = r.Points[i].Metrics
	}
	return struct {
		Metrics []*sweep.Metrics    `json:"metrics"`
		Pareto  []sweep.ParetoFront `json:"pareto"`
	}{ms, r.Pareto}
}

// frontValues canonicalizes a front as its sorted distinct objective
// values, so fronts that pick different but metric-identical points
// (solver or engine twins) compare equal.
func frontValues(f sweep.ParetoFront, metrics map[int]*sweep.Metrics) []string {
	seen := map[string]bool{}
	var out []string
	for _, idx := range f.Indices {
		m := metrics[idx]
		if m == nil {
			continue
		}
		v := fmt.Sprintf("%g,%g", m.Get(f.X), m.Get(f.Y))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
