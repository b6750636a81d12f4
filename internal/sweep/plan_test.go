package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestMemoPlanSizeTracksDocument checks the bytes the memo charges a
// plan against the JSON of everything the plan holds, within the 2.5×
// bound the memo's size test applies to every kind.
func TestMemoPlanSizeTracksDocument(t *testing.T) {
	const maxRatio = 2.5
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "sweep-l2-grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Parse(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	rn := scenario.NewRunner(1)
	p, err := Prepare(rn, sw)
	if err != nil {
		t.Fatal(err)
	}
	if p.errs != nil || len(p.prepared) != 6 {
		t.Fatalf("want a plan of 6 prepared points, got %+v", p)
	}
	doc, err := json.Marshal(struct {
		Name     string
		Labels   []string
		Values   [][]string
		Rows     []int32
		Pareto   []ParetoPair
		Total    int
		Coords   [][]Coord
		Prepared []*scenario.Result
		L2Bytes  []int
	}{p.name, p.axes.labels, p.axes.values, p.axes.rows, p.pareto, p.total, p.coords, p.prepared, p.l2Bytes})
	if err != nil {
		t.Fatal(err)
	}
	u := rn.MemoUsage()
	if u.Entries != 1 {
		t.Fatalf("the memo holds %+v, want the plan alone", u)
	}
	if r := float64(u.Bytes) / float64(len(doc)); r < 1/maxRatio || r > maxRatio {
		t.Errorf("plan size %d vs %d-byte document (ratio %.2f)", u.Bytes, len(doc), r)
	}
}

// TestMemoPlanKeyTellsEncodingTwinsApart checks the plan key separates
// sweeps that plain JSON encodes alike but that run differently: axis
// values differing only in spacing (their raw text is their coordinate
// label). A base with an empty sizes list runs the default ladder, like
// one without sizes, and shares its plan key.
func TestMemoPlanKeyTellsEncodingTwinsApart(t *testing.T) {
	base := Sweep{
		Base: scenario.Scenario{Workload: "jpeg1-only", Scale: "small"},
		Axes: []Axis{{Field: "sizes", Values: []json.RawMessage{json.RawMessage(`[1, 2]`)}}},
	}
	empty := base
	empty.Base.Sizes = []int{}
	tight := base
	tight.Axes = []Axis{{Field: "sizes", Values: []json.RawMessage{json.RawMessage(`[1,2]`)}}}
	keys := map[string]string{}
	for name, sw := range map[string]Sweep{"base": base, "tight": tight} {
		k, ok := planKey(sw)
		if !ok {
			t.Fatalf("%s: no key", name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("%s and %s share a plan key", name, prev)
		}
		keys[k] = name
	}
	k1, _ := planKey(base)
	k2, _ := planKey(base)
	if k1 != k2 {
		t.Error("the plan key is not a function of the sweep")
	}
	if ke, _ := planKey(empty); ke != k1 {
		t.Error("a base with an empty sizes list must share the plan key of one without sizes")
	}
}

// TestMemoPlanPerCPUBase checks that a plan whose specs carry per-CPU
// cache overrides, a map the plan reaches through its unexported
// fields, is sized and memoized like any other: the second Prepare of
// the sweep is a hit on the first one's plan.
func TestMemoPlanPerCPUBase(t *testing.T) {
	sw, err := Parse([]byte(`{
		"base": {"workload": "jpeg1-only", "scale": "small", "platform": {"hierarchy": {"levels": [
			{"name": "l1", "per_cpu": {"0": {"sets": 128}}},
			{"name": "l2", "partition": true}
		]}}},
		"axes": [{"field": "seed", "values": [1, 2]}]
	}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	rn := scenario.NewRunner(1)
	p, err := Prepare(rn, sw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Prepare(rn, sw)
	if err != nil || again != p {
		t.Fatalf("the second Prepare built a new plan (%v)", err)
	}
	if u := rn.MemoUsage(); u.Entries != 1 || u.Bytes <= 0 {
		t.Errorf("the memo holds %+v, want the plan alone", u)
	}
}
