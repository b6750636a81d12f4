package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// deref unwraps an optional int spec field (nil → 0).
func deref(p *int) int {
	if p == nil {
		return 0
	}
	return *p
}

// mustParse parses a spec with no base lookup.
func mustParse(t *testing.T, raw string) Sweep {
	t.Helper()
	sw, err := Parse([]byte(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestExpandGolden pins the expansion order: dimension-major over the
// axes (zip groups count as one dimension), last dimension fastest, so
// the point list is a deterministic function of the spec alone.
func TestExpandGolden(t *testing.T) {
	sw := mustParse(t, `{
		"name": "g",
		"base": {"workload": "mpeg2", "scale": "small"},
		"axes": [
			{"field": "platform.l2.sets", "values": [1024, 2048]},
			{"field": "seed", "range": {"from": 0, "count": 2}, "zip": "s"},
			{"field": "migration", "values": [false, true], "zip": "s"}
		]
	}`)
	points, total, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 || len(points) != 4 {
		t.Fatalf("want 4 points, got %d of %d", len(points), total)
	}
	coords, _ := json.Marshal(func() (out [][]Coord) {
		for _, p := range points {
			out = append(out, p.Coords)
		}
		return
	}())
	const golden = `[` +
		`[{"axis":"platform.l2.sets","value":"1024"},{"axis":"seed","value":"0"},{"axis":"migration","value":"false"}],` +
		`[{"axis":"platform.l2.sets","value":"1024"},{"axis":"seed","value":"1"},{"axis":"migration","value":"true"}],` +
		`[{"axis":"platform.l2.sets","value":"2048"},{"axis":"seed","value":"0"},{"axis":"migration","value":"false"}],` +
		`[{"axis":"platform.l2.sets","value":"2048"},{"axis":"seed","value":"1"},{"axis":"migration","value":"true"}]]`
	if string(coords) != golden {
		t.Errorf("expansion order changed:\n got %s\nwant %s", coords, golden)
	}
	// The axis values actually landed on the scenarios.
	p3 := points[3].Scenario
	if p3.Platform == nil || partitionSets(t, p3) != 2048 || p3.Seed != 1 || !p3.Migration {
		t.Errorf("point 3 scenario wrong: %+v", p3)
	}
	if partitionSets(t, points[0].Scenario) != 1024 {
		t.Errorf("point 0 scenario wrong: %+v", points[0].Scenario)
	}
	if p3.Workload != "mpeg2" || p3.Scale != "small" {
		t.Errorf("base fields must carry over: %+v", p3)
	}
	// Point names encode the coordinates.
	if points[1].Scenario.Name != "g[platform.l2.sets=1024,seed=1,migration=true]" {
		t.Errorf("point name: %q", points[1].Scenario.Name)
	}
}

// TestExpandDoesNotAliasPlatform guards the subtle sharing bug: the base
// scenario's Platform is a pointer, so every point must get its own
// copy before a geometry axis writes through it.
func TestExpandDoesNotAliasPlatform(t *testing.T) {
	eight := 8
	base := scenario.Scenario{Workload: "mpeg2", Platform: &scenario.PlatformSpec{NumCPUs: &eight}}
	sw := Sweep{
		Name: "alias",
		Base: base,
		Axes: []Axis{{Field: "platform.l2.sets", Values: rawVals(t, 1024, 2048)}},
	}
	points, _, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Scenario.Platform == points[1].Scenario.Platform {
		t.Fatal("points share one PlatformSpec")
	}
	if partitionSets(t, points[0].Scenario) != 1024 || partitionSets(t, points[1].Scenario) != 2048 {
		t.Errorf("geometry values clobbered each other: %+v vs %+v",
			points[0].Scenario.Platform, points[1].Scenario.Platform)
	}
	if base.Platform.Hierarchy != nil || base.Platform.L2.Sets != nil {
		t.Errorf("expansion mutated the base platform: %+v", base.Platform)
	}
	if deref(points[0].Scenario.Platform.NumCPUs) != 8 {
		t.Error("base platform overrides must carry into points")
	}
}

func rawVals(t *testing.T, vs ...interface{}) []json.RawMessage {
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

// partitionSets reads the effective partition-level set count of a
// point's scenario (geometry axes write the hierarchy block).
func partitionSets(t *testing.T, s scenario.Scenario) int {
	t.Helper()
	pc, err := s.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	return pc.PartitionGeom().Sets
}

// TestL2KBAxis checks the capacity convenience derives the set count
// from the effective associativity and line size.
func TestL2KBAxis(t *testing.T) {
	sw := mustParse(t, `{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "platform.l2.kb", "values": [256, 1024]}]
	}`)
	points, _, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Section 5 defaults: 4 ways × 64 B lines → 256 B per set of ways.
	if partitionSets(t, points[0].Scenario) != 1024 || partitionSets(t, points[1].Scenario) != 4096 {
		t.Errorf("kb→sets derivation wrong: %d, %d",
			partitionSets(t, points[0].Scenario), partitionSets(t, points[1].Scenario))
	}

	// A ways axis declared BEFORE kb participates in the derivation: the
	// labeled capacity holds for every associativity.
	sw = mustParse(t, `{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "platform.l2.ways", "values": [2, 4]},
		         {"field": "platform.l2.kb", "values": [256]}]
	}`)
	points, _, err = sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if partitionSets(t, points[0].Scenario) != 2048 || partitionSets(t, points[1].Scenario) != 1024 {
		t.Errorf("kb must derive from the swept ways: %d, %d",
			partitionSets(t, points[0].Scenario), partitionSets(t, points[1].Scenario))
	}

	// Declared AFTER kb, a geometry axis would silently change the
	// capacity the points are labeled with — rejected at validation.
	if _, err := Parse([]byte(`{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "platform.l2.kb", "values": [256]},
		         {"field": "platform.l2.ways", "values": [2, 4]}]
	}`), nil); err == nil || !strings.Contains(err.Error(), "before the l2.kb axis") {
		t.Errorf("ways-after-kb must be rejected, got %v", err)
	}
}

// TestLegacySpellingsWriteTheirLevel checks each legacy platform.l1/l2
// spelling is its level path's twin: a one-axis sweep prepares to
// exactly the content keys of the same axis spelled as the level path
// it names, on the default tile and on a base overriding l2 through
// the alias fields.
func TestLegacySpellingsWriteTheirLevel(t *testing.T) {
	cases := []struct{ legacy, twin, values string }{
		{"platform.l1.sets", "platform.hierarchy.l1.sets", "[128, 1024]"},
		{"platform.l1.ways", "platform.hierarchy.l1.ways", "[2, 8]"},
		{"platform.l1.line_size", "platform.hierarchy.l1.line_size", "[32, 128]"},
		{"platform.l2.sets", "platform.hierarchy.l2.sets", "[128, 1024]"},
		{"platform.l2.ways", "platform.hierarchy.l2.ways", "[2, 8]"},
		{"platform.l2.line_size", "platform.hierarchy.l2.line_size", "[32, 128]"},
		{"platform.l2.kb", "platform.hierarchy.l2.kb", "[128, 512]"},
		{"platform.l2_hit_latency", "platform.hierarchy.l2.hit_latency", "[5, 20]"},
	}
	bases := map[string]string{
		"default tile":      `{"workload": "mpeg2", "scale": "small"}`,
		"l2 alias override": `{"workload": "mpeg2", "scale": "small", "platform": {"l2": {"ways": 8}, "l2_hit_latency": 9}}`,
	}
	rn := scenario.NewRunner(1)
	for _, c := range cases {
		for baseName, base := range bases {
			keys := func(field string) []string {
				t.Helper()
				sw := mustParse(t, fmt.Sprintf(`{"base": %s, "axes": [{"name": "ax", "field": %q, "values": %s}]}`, base, field, c.values))
				p, err := Prepare(rn, sw)
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for i, r := range p.prepared {
					if p.errs != nil && p.errs[i] != nil {
						t.Fatalf("%s on the %s: point %d: %v", field, baseName, i, p.errs[i])
					}
					out = append(out, r.Key)
				}
				return out
			}
			got, want := keys(c.legacy), keys(c.twin)
			if !slices.Equal(got, want) {
				t.Errorf("%s on the %s keys %v, its twin %s keys %v", c.legacy, baseName, got, c.twin, want)
			}
			if got[0] == got[1] {
				t.Errorf("%s on the %s: both values key %s", c.legacy, baseName, got[0])
			}
		}
	}
}

// TestPointCap checks the cap truncates deterministically and reports
// the full product size, and that an uncapped oversized expansion errors
// instead of truncating silently.
func TestPointCap(t *testing.T) {
	sw := mustParse(t, `{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "seed", "range": {"from": 0, "count": 10}},
		         {"field": "migration", "values": [false, true]}],
		"max_points": 7
	}`)
	points, total, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 || len(points) != 7 {
		t.Errorf("want 7 of 20 points, got %d of %d", len(points), total)
	}
	// The capped prefix is the same points the uncapped expansion starts with.
	sw.MaxPoints = 0
	full, _, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		a, _ := json.Marshal(points[i])
		b, _ := json.Marshal(full[i])
		if string(a) != string(b) {
			t.Fatalf("cap changed point %d:\n%s\nvs\n%s", i, a, b)
		}
	}

	big := mustParse(t, `{
		"base": {"workload": "mpeg2"},
		"axes": [{"field": "seed", "range": {"from": 0, "count": 5000}},
		         {"field": "migration", "values": [false, true]}]
	}`)
	if _, _, err := big.Expand(); err == nil || !strings.Contains(err.Error(), "max_points") {
		t.Errorf("oversized uncapped expansion must error mentioning max_points, got %v", err)
	}
}

// TestParseRejections enumerates the spec validation errors.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"unknown top-level field", `{"bse": {}, "axes": [{"field":"seed","values":[1]}]}`, `"bse"`},
		{"unknown axis object field", `{"base":{"workload":"mpeg2"},"axes":[{"feild":"seed","values":[1]}]}`, `"feild"`},
		{"unknown sweep field", `{"base":{"workload":"mpeg2"},"axes":[{"field":"l2_kb","values":[1]}]}`, "unknown field \"l2_kb\" (sweepable:"},
		{"typo in base spec", `{"base":{"workload":"mpeg2","sede":1},"axes":[{"field":"seed","values":[1]}]}`, `"sede"`},
		{"no axes", `{"base":{"workload":"mpeg2"}}`, "no axes"},
		{"no values", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed"}]}`, "no values and no range"},
		{"values and range", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":[1],"range":{"from":0,"count":2}}]}`, "both values and a range"},
		{"range on a string field", `{"base":{"workload":"mpeg2"},"axes":[{"field":"solver","range":{"from":0,"count":2}}]}`, "explicit values, not a range"},
		{"bad value type", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":["three"]}]}`, "decoding value"},
		{"zip length mismatch", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":[1,2],"zip":"z"},{"field":"migration","values":[true],"zip":"z"}]}`, "different lengths"},
		{"duplicate axis", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":[1]},{"field":"seed","values":[2]}]}`, "duplicate axis"},
		{"same field twice under different names", `{"base":{"workload":"mpeg2"},"axes":[{"name":"a","field":"seed","values":[1]},{"name":"b","field":"seed","values":[2]}]}`, `both set seed`},
		{"kb then sets", `{"base":{"workload":"mpeg2"},"axes":[{"field":"platform.l2.kb","values":[512]},{"name":"sets","field":"platform.l2.sets","values":[256,2048]}]}`, "both set platform.hierarchy.l2.sets"},
		{"sets then kb", `{"base":{"workload":"mpeg2"},"axes":[{"name":"sets","field":"platform.l2.sets","values":[256]},{"field":"platform.l2.kb","values":[512]}]}`, "both set platform.hierarchy.l2.sets"},
		{"legacy spelling of a missing level", `{"base":{"workload":"mpeg2","platform":{"hierarchy":{"levels":[{"name":"l1"},{"name":"llc"}]}}},"axes":[{"field":"platform.l2.sets","values":[1024]}]}`, `hierarchy has no level "l2"`},
		{"no legacy spelling beyond l1/l2", `{"base":{"workload":"mpeg2","platform":{"hierarchy":{"levels":[{"name":"l1"},{"name":"l2"},{"name":"l3"}]}}},"axes":[{"field":"platform.l3.kb","values":[1024]}]}`, `unknown field "platform.l3.kb"`},
		{"no workload anywhere", `{"axes":[{"field":"seed","values":[1]}]}`, "names no workload"},
		{"bad pareto metric", `{"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":[1]}],"pareto":[{"x":"latency","y":"makespan"}]}`, `unknown pareto metric "latency"`},
		{"future version", `{"spec_version":9,"base":{"workload":"mpeg2"},"axes":[{"field":"seed","values":[1]}]}`, "unsupported spec_version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.raw), nil)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}

	// A sweep whose only workload comes from an axis is valid.
	if _, err := Parse([]byte(`{"axes":[{"field":"workload","values":["mpeg2"]}]}`), nil); err != nil {
		t.Errorf("workload-axis-only sweep rejected: %v", err)
	}
}

// profileSweep is a cheap sweep: profile-only small-scale points.
func profileSweep(t *testing.T) Sweep {
	return mustParse(t, `{
		"name": "prof",
		"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "profile"},
		"axes": [{"field": "seed", "range": {"from": 0, "count": 2}},
		         {"field": "solver", "values": ["mckp", "ilp"]}]
	}`)
}

// TestExecuteProfileSharing checks execution-side axes share their
// profile stages: the solver axis doubles the points but not the
// profiling work (4 points, 2 profile stages).
func TestExecuteProfileSharing(t *testing.T) {
	rn := scenario.NewRunner(2)
	res, err := Execute(context.Background(), rn, profileSweep(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4 || res.Failed != 0 {
		t.Fatalf("want 4 clean points, got %+v", res)
	}
	if res.Stats.ProfileRuns != 2 {
		t.Errorf("4 points over 2 seeds must run 2 profile stages, got %+v", res.Stats)
	}
	if res.Stats.MemoHits != 2 {
		t.Errorf("want 2 memo hits, got %+v", res.Stats)
	}
}

// TestExecuteMemoAmplification is the headline assertion: an N-point
// sweep whose axes only vary execution-side fields (migration, solver)
// runs the shared profile stage exactly once.
//
// The solver axis only spells twins: "ilp" normalizes to "mckp", so each
// ilp point shares its mckp twin's content key and every stage.
func TestExecuteMemoAmplification(t *testing.T) {
	sw := mustParse(t, `{
		"name": "amp",
		"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1},
		"axes": [{"field": "migration", "values": [false, true]},
		         {"field": "solver", "values": ["mckp", "ilp"]}]
	}`)
	rn := scenario.NewRunner(2)
	res, err := Execute(context.Background(), rn, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4 || res.Failed != 0 {
		t.Fatalf("want 4 clean points, got failed=%d canceled=%d", res.Failed, res.Canceled)
	}
	if res.Stats.ProfileRuns != 1 {
		t.Errorf("execution-side axes must share ONE profile stage, got %+v", res.Stats)
	}
	// Distinct work that must not be shared: 1 optimize, 2 shared runs
	// and 2 partitioned runs (one each per migration setting). The
	// solver twins add none.
	if res.Stats.OptimizeRuns != 1 || res.Stats.RunRuns != 4 {
		t.Errorf("unexpected stage sharing: %+v", res.Stats)
	}
	if res.Stats.MemoHits == 0 {
		t.Error("amplified sweep must serve memo hits")
	}

	// Aggregates exist for measured points: extremes and fronts.
	if len(res.Extremes) != 3 {
		t.Errorf("want extremes for makespan/misses/energy, got %+v", res.Extremes)
	}
	if len(res.Pareto) != len(DefaultPareto()) {
		t.Errorf("want the default pareto fronts, got %+v", res.Pareto)
	}
	for _, f := range res.Pareto {
		if len(f.Indices) == 0 {
			t.Errorf("front %s/%s is empty", f.X, f.Y)
		}
	}
	for _, s := range res.Sensitivity {
		if len(s.Rows) != 2 {
			t.Errorf("axis %s: want 2 sensitivity rows, got %+v", s.Axis, s.Rows)
		}
		for _, row := range s.Rows {
			if row.N != 2 {
				t.Errorf("axis %s value %s: want 2 points, got %d", s.Axis, row.Value, row.N)
			}
		}
	}
	// The rendered form covers every section without panicking.
	text := Render(res)
	for _, want := range []string{"sweep amp: 4 points", "1 profile", "Sensitivity to migration", "Pareto front"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, text)
		}
	}
}

// TestExecuteWorkerInvariance checks the aggregate document is
// bit-identical at any worker-pool bound.
func TestExecuteWorkerInvariance(t *testing.T) {
	seq, err := Execute(context.Background(), scenario.NewRunner(1), profileSweep(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(context.Background(), scenario.NewRunner(4), profileSweep(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Errorf("worker count changed the sweep aggregate:\n%s\nvs\n%s", a, b)
	}
}

// TestExecuteEmbedsPointFailures checks a failing point is recorded
// without sinking the sweep.
func TestExecuteEmbedsPointFailures(t *testing.T) {
	sw := mustParse(t, `{
		"base": {"scale": "small", "runs": 1, "partition": "profile"},
		"axes": [{"field": "workload", "values": ["jpeg1-only", "no-such-workload"]}]
	}`)
	var streamed []int
	res, err := Execute(context.Background(), scenario.NewRunner(1), sw, func(p PointResult) {
		streamed = append(streamed, p.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Executed != 2 {
		t.Fatalf("want 1 failure of 2, got %+v", res)
	}
	if res.Points[1].Error == "" || !strings.Contains(res.Points[1].Error, "unknown workload") {
		t.Errorf("failure not recorded: %+v", res.Points[1])
	}
	if len(streamed) != 2 || streamed[0] != 0 || streamed[1] != 1 {
		t.Errorf("observe must see every point in order, got %v", streamed)
	}
}

// TestParetoFrontTies checks exact (x, y) ties are both admitted —
// neither point dominates the other — while a strictly worse point on
// the same y is not.
func TestParetoFrontTies(t *testing.T) {
	mk := func(idx int, x, y float64) PointSummary {
		return PointSummary{Index: idx, Metrics: &Metrics{Energy: x, Makespan: uint64(y)}}
	}
	front := paretoFront([]PointSummary{
		mk(0, 1, 5), mk(1, 1, 5), // tied optimum: both on the front
		mk(2, 2, 5), // dominated by the x=1 points
		mk(3, 3, 2), // improves y: on the front
	}, ParetoPair{X: "energy", Y: "makespan"}, nil)
	if len(front.Indices) != 3 || front.Indices[0] != 0 || front.Indices[1] != 1 || front.Indices[2] != 3 {
		t.Errorf("want front [0 1 3], got %v", front.Indices)
	}
}

// TestHugeRangeCappedSweep guards the DoS shape: an axis whose declared
// range is astronomically larger than the cap must cost only the capped
// points — in expansion, execution AND aggregation (sensitivity once
// iterated the full value domain). Completing at all is the assertion;
// an O(domain) regression would time the test out by itself.
func TestHugeRangeCappedSweep(t *testing.T) {
	sw := mustParse(t, `{
		"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "profile"},
		"axes": [{"field": "seed", "range": {"from": 0, "count": 100000000}}],
		"max_points": 2
	}`)
	res, err := Execute(context.Background(), scenario.NewRunner(1), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 2 || res.TotalPoints != 100000000 || res.Truncated != 100000000-2 {
		t.Fatalf("bad cap accounting: %+v", res)
	}
	if len(res.Sensitivity) != 1 || len(res.Sensitivity[0].Rows) != 2 {
		t.Fatalf("sensitivity must cover only executed values, got %+v", res.Sensitivity)
	}
}

// TestSummarizeClassifiesPoints pins the point classifier sweeps and
// explorations share: an unstarted point and one whose context expired
// mid-pipeline are canceled, any other error fails the point, and a
// measured point takes its metrics from the partitioned run, with the
// L2 capacity given or derived from its spec.
func TestSummarizeClassifiesPoints(t *testing.T) {
	spec, err := baseScenario().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	coords := []Coord{{Axis: "seed", Value: "0"}}
	if ps := Summarize(3, coords, nil, nil, 0); !ps.Canceled || ps.Index != 3 || ps.Error != "" || len(ps.Coords) != 1 {
		t.Errorf("unstarted point: %+v", ps)
	}
	failed := &scenario.Result{Key: "k", Scenario: &spec, Error: "stage failed"}
	for _, err := range []error{context.Canceled, fmt.Errorf("profile: %w", context.DeadlineExceeded)} {
		if ps := Summarize(0, coords, failed, err, 0); !ps.Canceled || ps.Key != "k" || ps.Error != "stage failed" {
			t.Errorf("point expired by %v: %+v", err, ps)
		}
	}
	if ps := Summarize(0, coords, failed, errors.New("stage failed"), 0); ps.Canceled || ps.Error != "stage failed" || ps.Metrics != nil {
		t.Errorf("failed point: %+v", ps)
	}
	profiled := &scenario.Result{Key: "k", Scenario: &spec}
	if ps := Summarize(0, coords, profiled, nil, 0); ps.Canceled || ps.Error != "" || ps.Key != "k" || ps.Metrics != nil {
		t.Errorf("a point without a measured run must carry no metrics: %+v", ps)
	}
	measured := &scenario.Result{Key: "k", Scenario: &spec,
		Shared:      &scenario.RunSummary{Makespan: 9, TotalMisses: 30},
		Partitioned: &scenario.RunSummary{Makespan: 7, TotalMisses: 10},
	}
	const defaultL2 = 2048 * 4 * 64 // the default tile's shared L2
	for given, want := range map[int]int{0: defaultL2, 4096: 4096} {
		ps := Summarize(0, coords, measured, nil, given)
		if m := ps.Metrics; ps.Canceled || ps.Error != "" || m == nil ||
			m.Makespan != 7 || m.Misses != 10 || m.MissRatio != 3 || m.L2Bytes != want {
			t.Errorf("measured point with l2Bytes %d: %+v, metrics %+v", given, ps, ps.Metrics)
		}
	}
}

// TestExecuteCanceled checks a canceled context marks unstarted points
// canceled instead of executing them.
func TestExecuteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rn := scenario.NewRunner(1)
	res, err := Execute(ctx, rn, profileSweep(t), func(p PointResult) {
		t.Errorf("canceled sweep must not observe points, saw %d", p.Index)
	})
	if err == nil {
		t.Error("canceled sweep must return the context error")
	}
	if res == nil || res.Canceled != res.Executed || res.Executed != 4 {
		t.Fatalf("want 4 canceled points, got %+v", res)
	}
	if rn.Stats().StageRuns != 0 {
		t.Errorf("canceled sweep must not simulate: %+v", rn.Stats())
	}
}
