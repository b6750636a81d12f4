package sweep

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// FuzzParse hardens sweep spec decoding and index addressing against
// arbitrary bytes: Parse, Index and PointAt never panic, and on an
// accepted spec's space every point index survives the coordinate
// round trip, IndexOf(CoordOf(p)) == p. Only the first points of large
// spaces are addressed, keeping each input cheap.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/sweep-*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example sweep specs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","range":{"from":-3,"count":4,"step":5},"zip":"z"},{"field":"runs","values":[1,2,3,4],"zip":"z"},{"field":"platform.hierarchy.l2.ways","values":[2,4]}]}`))
	// A stand-in for the built-in 3-level base the l3 example names.
	l3, err := scenario.Resolve([]byte(`{"workload":"2jpeg+canny","platform":{"hierarchy":{"levels":[{"name":"l1"},{"name":"l2","scope":"private"},{"name":"l3","sets":4096,"partition":true}]}}}`), nil)
	if err != nil {
		f.Fatal(err)
	}
	lookup := func(name string) (scenario.Scenario, bool) { return l3, name == "l3-shared" }
	f.Fuzz(func(t *testing.T, raw []byte) {
		sw, err := Parse(raw, lookup)
		if err != nil {
			return
		}
		sp, err := sw.Index()
		if err != nil {
			return
		}
		n := min(sp.Total(), 64)
		for p := 0; p < n; p++ {
			if got := sp.IndexOf(sp.CoordOf(p)); got != p {
				t.Fatalf("IndexOf(CoordOf(%d)) = %d", p, got)
			}
			if pt, err := sp.PointAt(p); err == nil && pt.Index != p {
				t.Fatalf("PointAt(%d) returned point %d", p, pt.Index)
			}
		}
	})
}
