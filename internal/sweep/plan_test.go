package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestMemoPlanSizeTracksDocument checks a plan's size estimate against
// the JSON of everything it holds, within the 2.5× bound the memo's
// size test applies to every kind, and that the memo charges the plan
// exactly its estimate.
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
		Pareto   []ParetoPair
		Total    int
		Coords   [][]Coord
		Prepared []*scenario.Result
		L2Bytes  []int
	}{p.name, p.labels, p.pareto, p.total, p.coords, p.prepared, p.l2Bytes})
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(p.size()) / float64(len(doc)); r < 1/maxRatio || r > maxRatio {
		t.Errorf("plan size %d vs %d-byte document (ratio %.2f)", p.size(), len(doc), r)
	}
	if u := rn.MemoUsage(); u.Entries != 1 || u.Bytes != p.size() {
		t.Errorf("the memo holds %+v, want the plan's %d bytes alone", u, p.size())
	}
}

// TestMemoPlanKeyTellsEncodingTwinsApart checks the plan key separates
// sweeps that plain JSON encodes alike but that run differently: a base
// with an empty sizes list (no candidate sizes) and one without sizes
// (the default ladder), and axis values differing only in spacing
// (their raw text is their coordinate label).
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
	for name, sw := range map[string]Sweep{"base": base, "empty sizes": empty, "tight": tight} {
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
}
