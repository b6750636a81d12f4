package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func baseScenario() scenario.Scenario {
	return scenario.Scenario{Workload: "mpeg2", Scale: "small"}
}

// spaceSweep is a 3-dimension sweep with a zip group, small enough to
// cross-check PointAt against Expand point by point.
func spaceSweep() Sweep {
	return Sweep{
		Name: "space",
		Base: baseScenario(),
		Axes: []Axis{
			{Field: "seed", Range: &Range{From: 0, Count: 3}},
			{Name: "l2_kb", Field: "platform.l2.kb", Values: rawValues(t128, t256)},
			{Field: "runs", Values: rawValues("1", "2"), Zip: "g"},
			{Field: "solver", Values: rawValues(`"mckp"`, `"ilp"`), Zip: "g"},
		},
	}
}

const (
	t128 = "128"
	t256 = "256"
)

func rawValues(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(v)
	}
	return out
}

// TestSpaceMatchesExpand pins the index-addressed view to the
// exhaustive expansion: same total, and PointAt(i) bit-identical to
// points[i] for every index, including coordinate labels and the
// derived scenario name.
func TestSpaceMatchesExpand(t *testing.T) {
	sw := spaceSweep()
	points, total, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sw.Index()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total() != total || len(points) != total {
		t.Fatalf("total mismatch: space %d, expand %d (%d points)", sp.Total(), total, len(points))
	}
	for i := range points {
		pt, err := sp.PointAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(points[i])
		got, _ := json.Marshal(pt)
		if string(want) != string(got) {
			t.Errorf("point %d: PointAt diverges from Expand:\n  expand: %s\n  space:  %s", i, want, got)
		}
	}
	if _, err := sp.PointAt(total); err == nil {
		t.Error("PointAt past the end must fail")
	}
	if _, err := sp.PointAt(-1); err == nil {
		t.Error("PointAt(-1) must fail")
	}
}

// TestSpaceCoordRoundTrip checks CoordOf/IndexOf are inverses over the
// whole space and that DimSizes reflects zip grouping (two zipped axes
// are one dimension).
func TestSpaceCoordRoundTrip(t *testing.T) {
	sp, err := spaceSweep().Index()
	if err != nil {
		t.Fatal(err)
	}
	sizes := sp.DimSizes()
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("want dims [3 2 2], got %v", sizes)
	}
	for p := 0; p < sp.Total(); p++ {
		if got := sp.IndexOf(sp.CoordOf(p)); got != p {
			t.Fatalf("IndexOf(CoordOf(%d)) = %d", p, got)
		}
	}
	if sp.IndexOf([]int{0, 0, 2}) != -1 || sp.IndexOf([]int{0, 0}) != -1 {
		t.Error("out-of-range coordinates must map to -1")
	}
	if sp.DimOf("seed") != 0 || sp.DimOf("l2_kb") != 1 || sp.DimOf("runs") != 2 || sp.DimOf("solver") != 2 {
		t.Errorf("axis-to-dimension mapping wrong: seed=%d l2_kb=%d runs=%d solver=%d",
			sp.DimOf("seed"), sp.DimOf("l2_kb"), sp.DimOf("runs"), sp.DimOf("solver"))
	}
	if sp.DimOf("nope") != -1 {
		t.Error("unknown axis must map to -1")
	}
}

// TestHugeSpaceExplorableNotExpandable is the regression test for the
// lazy-indexing contract: a space beyond the 4096-point exhaustive cap
// stays addressable point by point (Total, PointAt), while Expand and
// Execute keep refusing it — exploration scales, exhaustive expansion
// stays bounded.
func TestHugeSpaceExplorableNotExpandable(t *testing.T) {
	sw := Sweep{
		Base: baseScenario(),
		Axes: []Axis{
			{Field: "seed", Range: &Range{From: 0, Count: 1 << 16}},
			{Name: "l2_kb", Field: "platform.l2.kb", Values: rawValues(t128, t256)},
		},
	}
	sp, err := sw.Index()
	if err != nil {
		t.Fatal(err)
	}
	total := sp.Total()
	if want := 2 << 16; total != want {
		t.Fatalf("Total() = %d, want %d", total, want)
	}
	// A point deep past the exhaustive cap materializes fine.
	deep := 5*4096 + 3
	pt, err := sp.PointAt(deep)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Index != deep || pt.Scenario.Seed != uint64(deep/2) {
		t.Errorf("deep point wrong: index %d seed %d coords %v", pt.Index, pt.Scenario.Seed, pt.Coords)
	}
	if _, _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "default cap") {
		t.Errorf("uncapped Expand of a %d-point space must fail with the default-cap error, got %v", total, err)
	}
	rn := scenario.NewRunner(1)
	defer rn.Close()
	if _, err := Execute(context.Background(), rn, sw, nil); err == nil || !strings.Contains(err.Error(), "default cap") {
		t.Errorf("uncapped Execute of a %d-point space must fail with the default-cap error, got %v", total, err)
	}
	if st := rn.Stats(); st.StageRuns != 0 {
		t.Errorf("a refused sweep must simulate nothing: %+v", st)
	}
}
