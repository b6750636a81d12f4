package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// testConfig is the fast experiment configuration every test here runs
// under (one profiling run keeps the 1-CPU suite quick).
func testConfig() experiments.Config {
	cfg := experiments.Small()
	cfg.ProfileRuns = 1
	return cfg
}

func paperGrid(t testing.TB) sweep.Sweep {
	t.Helper()
	sw, ok := experiments.BuiltinSweep(testConfig(), experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("paper-grid builtin missing")
	}
	return sw
}

// frontValues canonicalizes a front as its sorted distinct objective
// values — the objective-space shape of the front, invariant to which
// of several metric-identical points (solver twins landing on one
// allocation) represent each position.
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

func sweepMetrics(res *sweep.Result) map[int]*sweep.Metrics {
	out := map[int]*sweep.Metrics{}
	for i := range res.Points {
		out[res.Points[i].Index] = res.Points[i].Metrics
	}
	return out
}

func exploreMetrics(res *Result) map[int]*sweep.Metrics {
	out := map[int]*sweep.Metrics{}
	for i := range res.Points {
		if res.Points[i].Rung == 0 {
			out[res.Points[i].Index] = res.Points[i].Metrics
		}
	}
	return out
}

// assertOracle checks the exploration against the exhaustive sweep of
// the same space: per Pareto pair, the explored front must land on
// exactly the exhaustive front's objective values (no position missed,
// none invented), and every explored front index must be a member of
// the exhaustive front (no false positives).
func assertOracle(t *testing.T, exact *sweep.Result, got *Result) {
	t.Helper()
	if len(exact.Pareto) != len(got.Pareto) {
		t.Fatalf("front count: exhaustive %d, explore %d", len(exact.Pareto), len(got.Pareto))
	}
	em := sweepMetrics(exact)
	gm := exploreMetrics(got)
	for i, ef := range exact.Pareto {
		gf := got.Pareto[i]
		if ef.X != gf.X || ef.Y != gf.Y {
			t.Fatalf("front %d pair mismatch: %s/%s vs %s/%s", i, ef.X, ef.Y, gf.X, gf.Y)
		}
		want := frontValues(ef, em)
		have := frontValues(gf, gm)
		if fmt.Sprint(want) != fmt.Sprint(have) {
			t.Errorf("front %s/%s objective values diverge:\n  exhaustive: %v\n  explored:   %v\n  visit log: %s",
				ef.X, ef.Y, want, have, visitLog(got))
		}
		exactSet := map[int]bool{}
		for _, idx := range ef.Indices {
			exactSet[idx] = true
		}
		for _, idx := range gf.Indices {
			if !exactSet[idx] {
				t.Errorf("front %s/%s: explored front admits point %d, which the exhaustive front rejects", ef.X, ef.Y, idx)
			}
		}
	}
}

func visitLog(res *Result) string {
	var s string
	for _, p := range res.Points {
		s += fmt.Sprintf("\n    r%d #%d %s", p.Round, p.Index, sweep.CoordLabel(p.Coords))
	}
	return s
}

// TestOraclePaperGrid is the acceptance differential: on the built-in
// 32-point paper grid the exploration must reproduce the exhaustive
// Pareto fronts exactly (in objective space) while simulating at most
// 60% of the points (19 of 32).
func TestOraclePaperGrid(t *testing.T) {
	sw := paperGrid(t)

	rnExact := scenario.NewRunner(2)
	defer rnExact.Close()
	exact, err := sweep.Execute(context.Background(), rnExact, sw, nil)
	if err != nil {
		t.Fatal(err)
	}

	rn := scenario.NewRunner(2)
	defer rn.Close()
	got, err := Run(context.Background(), rn, Explore{Name: "oracle", Sweep: sw}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explore visited %d of %d points in %d rounds (converged=%v)%s",
		got.Visited, got.TotalPoints, got.Rounds, got.Converged, visitLog(got))

	if !got.Converged {
		t.Error("exploration must converge on the paper grid")
	}
	if limit := exact.TotalPoints * 60 / 100; got.Visited > limit {
		t.Errorf("visited %d of %d points; the acceptance bound is %d (60%%)", got.Visited, exact.TotalPoints, limit)
	}
	assertOracle(t, exact, got)
}

// TestOracleSeededRandomGrid runs the same differential on a seeded
// ~128-point grid with a deliberately rugged axis mix (geometry, CPU
// count, migration, solver), pinning the search's generality beyond the
// grid it was tuned on.
func TestOracleSeededRandomGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute grid; run without -short")
	}
	base, ok := experiments.BuiltinScenario(testConfig(), experiments.ScenarioApp2)
	if !ok {
		t.Fatal("app2 builtin missing")
	}
	sw := sweep.Sweep{
		Name: "rand-grid",
		Base: base,
		Axes: []sweep.Axis{
			{Name: "l2_kb", Field: "platform.l2.kb", Values: rawInts(t, 128, 256, 512, 1024)},
			{Field: "platform.num_cpus", Values: rawInts(t, 2, 4)},
			{Field: "migration", Values: rawBools(t, false, true)},
			{Field: "seed", Range: &sweep.Range{From: 1, Count: 4}},
			{Field: "solver", Values: rawStrings(t, "mckp", "ilp")},
		},
		Pareto: []sweep.ParetoPair{{X: "l2_bytes", Y: "makespan"}, {X: "energy", Y: "makespan"}},
	}

	rnExact := scenario.NewRunner(2)
	defer rnExact.Close()
	exact, err := sweep.Execute(context.Background(), rnExact, sw, nil)
	if err != nil {
		t.Fatal(err)
	}

	rn := scenario.NewRunner(2)
	defer rn.Close()
	got, err := Run(context.Background(), rn, Explore{
		Name:     "rand-oracle",
		Sweep:    sw,
		Strategy: Strategy{Seed: 7, Samples: 4},
	}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explore visited %d of %d points in %d rounds (converged=%v)",
		got.Visited, got.TotalPoints, got.Rounds, got.Converged)

	if got.Visited >= got.TotalPoints {
		t.Errorf("exploration visited the whole %d-point space — no saving over the exhaustive sweep", got.TotalPoints)
	}
	assertOracle(t, exact, got)
}

func rawInts(t *testing.T, vs ...int) []json.RawMessage       { return rawJSON(t, vs) }
func rawBools(t *testing.T, vs ...bool) []json.RawMessage     { return rawJSON(t, vs) }
func rawStrings(t *testing.T, vs ...string) []json.RawMessage { return rawJSON(t, vs) }

func rawJSON[T any](t *testing.T, vs []T) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
