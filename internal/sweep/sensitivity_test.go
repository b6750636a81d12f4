package sweep_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// sensitivityOracle is the per-call aggregation the plan's rows replace:
// for each axis, one pass over the points numbers the axis's values in
// first-appearance order, finding each point's value by its label, and
// a second pass accumulates the measured points into rows by value.
func sensitivityOracle(sw sweep.Sweep, points []sweep.PointSummary) []sweep.AxisSensitivity {
	valueOf := func(coords []sweep.Coord, axis string) (string, bool) {
		for _, c := range coords {
			if c.Axis == axis {
				return c.Value, true
			}
		}
		return "", false
	}
	var out []sweep.AxisSensitivity
	for _, ax := range sw.Axes {
		label := ax.Name
		if label == "" {
			label = ax.Field
		}
		index := map[string]int{}
		for _, p := range points {
			if v, ok := valueOf(p.Coords, label); ok {
				if _, seen := index[v]; !seen {
					index[v] = len(index)
				}
			}
		}
		rows := make([]sweep.SensitivityRow, len(index))
		for v, i := range index {
			rows[i].Value = v
		}
		for _, p := range points {
			v, ok := valueOf(p.Coords, label)
			if !ok || p.Metrics == nil {
				continue
			}
			r := &rows[index[v]]
			r.N++
			r.MeanMakespan += float64(p.Metrics.Makespan)
			r.MeanMisses += float64(p.Metrics.Misses)
			r.MeanEnergy += p.Metrics.Energy
		}
		for i := range rows {
			if r := &rows[i]; r.N > 0 {
				r.MeanMakespan /= float64(r.N)
				r.MeanMisses /= float64(r.N)
				r.MeanEnergy /= float64(r.N)
			}
		}
		out = append(out, sweep.AxisSensitivity{Axis: label, Rows: rows})
	}
	return out
}

// checkSensitivity holds a sweep aggregate's tables, which come from
// its plan's rows, and ComputeSensitivity's over the same points to
// the oracle.
func checkSensitivity(t *testing.T, what string, sw sweep.Sweep, res *sweep.Result) {
	t.Helper()
	want := sensitivityOracle(sw, res.Points)
	if !reflect.DeepEqual(res.Sensitivity, want) {
		t.Errorf("%s: the plan's tables\n%+v\ndiffer from the oracle's\n%+v", what, res.Sensitivity, want)
	}
	if got := sweep.ComputeSensitivity(sw, res.Points); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ComputeSensitivity\n%+v\ndiffers from the oracle's\n%+v", what, got, want)
	}
}

// TestSensitivityRowsMatchOracle holds the sensitivity tables a sweep
// accumulates over its plan's rows, and those ComputeSensitivity numbers
// per call, to the oracle: on the small paper grid cold and warm, on a
// sweep whose points fail, are canceled or measure nothing (profile-only
// points), and on a hand-built point set in which a point lacks an
// axis.
func TestSensitivityRowsMatchOracle(t *testing.T) {
	grid, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	rn := scenario.NewRunner(2)
	for _, what := range []string{"cold paper grid", "warm paper grid"} {
		res, err := sweep.Execute(context.Background(), rn, grid, nil)
		if err != nil || res.Failed != 0 {
			t.Fatalf("%s: %v, %d points failed", what, err, res.Failed)
		}
		checkSensitivity(t, what, grid, res)
	}

	mixed := parse(t, fmt.Sprintf(`{
		"base": {"scale": "small", "runs": 1},
		"axes": [
			{"field": "partition", "values": ["shared", "profile"]},
			{"field": "workload", "values": ["jpeg1-only", "sensitivity-unregistered-%d"]},
			{"field": "seed", "values": [0, 1]}
		]
	}`, lateSeq.Add(1)))
	res, err := sweep.Execute(context.Background(), scenario.NewRunner(2), mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 || res.Points[0].Metrics == nil || res.Points[4].Metrics != nil || res.Points[4].Error != "" {
		t.Fatalf("want measured, failed and profile-only points, got %+v", res.Points)
	}
	checkSensitivity(t, "failed and profile-only points", mixed, res)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = sweep.Execute(ctx, scenario.NewRunner(2), mixed, nil)
	if err == nil || res.Canceled == 0 {
		t.Fatalf("want canceled points, got %v, %+v", err, res.Points)
	}
	checkSensitivity(t, "canceled points", mixed, res)

	m := &sweep.Metrics{Makespan: 10, Misses: 4, Energy: 1.5}
	points := []sweep.PointSummary{
		{Index: 0, Coords: []sweep.Coord{{Axis: "a", Value: "x"}, {Axis: "b", Value: "1"}}, Metrics: m},
		{Index: 1, Coords: []sweep.Coord{{Axis: "a", Value: "y"}}, Metrics: &sweep.Metrics{Makespan: 7, Misses: 1, Energy: 0.25}},
		{Index: 2, Coords: []sweep.Coord{{Axis: "b", Value: "2"}, {Axis: "a", Value: "x"}}, Error: "failed"},
		{Index: 3, Coords: []sweep.Coord{{Axis: "a", Value: "z"}, {Axis: "b", Value: "2"}}, Canceled: true},
		{Index: 4, Coords: []sweep.Coord{{Axis: "a", Value: "y"}, {Axis: "b", Value: "1"}}, Metrics: m},
	}
	sw := sweep.Sweep{Axes: []sweep.Axis{{Field: "a"}, {Name: "b", Field: "seed"}, {Field: "c"}}}
	if got, want := sweep.ComputeSensitivity(sw, points), sensitivityOracle(sw, points); !reflect.DeepEqual(got, want) {
		t.Errorf("a point missing an axis: ComputeSensitivity\n%+v\ndiffers from the oracle's\n%+v", got, want)
	}
}
