package explore

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// specJSON is a hand-written wire spec covering the inline-sweep form
// with every strategy knob set.
const specJSON = `{
  "spec_version": 1,
  "name": "l2-hunt",
  "sweep": {
    "name": "l2-grid",
    "base": {"workload": "2jpeg+canny", "scale": "small", "runs": 1},
    "axes": [
      {"name": "l2_kb", "field": "platform.l2.kb", "values": [256, 512, 1024]},
      {"field": "migration", "values": [false, true]}
    ],
    "pareto": [{"x": "l2_bytes", "y": "makespan"}]
  },
  "strategy": {
    "seed": 42,
    "budget": 5,
    "rungs": [1, 2],
    "neighborhood": 2,
    "stable_rounds": 3,
    "max_per_round": 4,
    "samples": 2
  }
}`

func TestParseSpec(t *testing.T) {
	ex, err := Parse([]byte(specJSON), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name != "l2-hunt" || ex.Sweep.Name != "l2-grid" {
		t.Errorf("names: explore %q sweep %q", ex.Name, ex.Sweep.Name)
	}
	want := Strategy{Seed: 42, Budget: 5, Rungs: []int{1, 2}, Neighborhood: 2, StableRounds: 3, MaxPerRound: 4, Samples: 2}
	if got := ex.Strategy; got.Seed != want.Seed || got.Budget != want.Budget ||
		got.Neighborhood != want.Neighborhood || got.StableRounds != want.StableRounds ||
		got.MaxPerRound != want.MaxPerRound || got.Samples != want.Samples ||
		len(got.Rungs) != 2 || got.Rungs[0] != 1 || got.Rungs[1] != 2 {
		t.Errorf("strategy round-trip: got %+v", got)
	}
	if n, err := ex.Sweep.Total(); err != nil || n != 6 {
		t.Errorf("space size: %d (%v), want 6", n, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"bad version", `{"spec_version": 9, "sweep": "paper-grid"}`, "unsupported spec_version"},
		{"no sweep", `{"name": "x"}`, "no \"sweep\""},
		{"unknown field", `{"sweep": "paper-grid", "surprise": 1}`, "unknown field"},
		{"builtin without lookup", `{"sweep": "paper-grid"}`, "not supported here"},
		{"negative budget", `{"sweep": {"base": {"workload": "mpeg2"}, "axes": [{"field": "seed", "values": [1, 2]}]}, "strategy": {"budget": -1}}`, "non-negative"},
		{"descending rungs", `{"sweep": {"base": {"workload": "mpeg2"}, "axes": [{"field": "seed", "values": [1, 2]}]}, "strategy": {"rungs": [3, 2]}}`, "strictly ascending"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.raw), nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParseBuiltinSweep covers the "sweep is a JSON string" form: the
// name resolves through lookupSweep, and the explore name defaults to
// the sweep's.
func TestParseBuiltinSweep(t *testing.T) {
	cfg := testConfig()
	lookup := func(name string) (sweep.Sweep, bool) { return experiments.BuiltinSweep(cfg, name) }
	ex, err := Parse([]byte(`{"sweep": "paper-grid"}`), nil, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ex.Sweep.Total(); err != nil || ex.Name != "paper-grid" || n != 32 {
		t.Errorf("builtin sweep: name %q, total %d (%v)", ex.Name, n, err)
	}
	if _, err := Parse([]byte(`{"sweep": "no-such-grid"}`), nil, lookup); err == nil {
		t.Error("unknown builtin sweep must fail")
	}
}

// TestSpecJSONRoundTrip pins the self-containedness of the canonical
// form: SpecJSON re-parses with nil lookups (base resolved inline) into
// an exploration with an identical canonical form.
func TestSpecJSONRoundTrip(t *testing.T) {
	ex, err := Parse([]byte(specJSON), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ex.SpecJSON()
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := Parse(raw, nil, nil)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	raw2, err := ex2.SpecJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Errorf("canonical form is not a fixed point:\n%s\nvs\n%s", raw, raw2)
	}
}

// TestFingerprint pins the checkpoint-compatibility rule: the budget is
// excluded (a resumed run may extend it), everything else is identity.
func TestFingerprint(t *testing.T) {
	ex, err := Parse([]byte(specJSON), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := ex.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	bigger := ex
	bigger.Strategy.Budget = 500
	if fp2, _ := bigger.Fingerprint(); fp2 != fp {
		t.Error("budget change must not change the fingerprint")
	}

	reseeded := ex
	reseeded.Strategy.Seed = 43
	if fp2, _ := reseeded.Fingerprint(); fp2 == fp {
		t.Error("seed change must change the fingerprint (different trajectory)")
	}

	respaced := ex
	respaced.Sweep.Axes = ex.Sweep.Axes[:1]
	if fp2, _ := respaced.Fingerprint(); fp2 == fp {
		t.Error("axis change must change the fingerprint (different space)")
	}
}

// TestCheckpointRoundTrip covers the directory layout: the spec and the
// progress log round-trip, a missing log is a fresh start, and a log
// from a different exploration is rejected.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ex, err := Parse([]byte(specJSON), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := ex.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	if _, found, err := loadCheckpoint(dir, fp, 6); err != nil || found {
		t.Fatalf("missing checkpoint must be a fresh start, got found=%v err=%v", found, err)
	}

	if err := saveSpec(dir, ex); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp2, _ := loaded.Fingerprint(); fp2 != fp {
		t.Errorf("spec round-trip changed the fingerprint: %s vs %s", fp2, fp)
	}

	cp := &checkpoint{
		SchemaVersion: 1,
		Fingerprint:   fp,
		Round:         3,
		Radius:        2,
		Quiet:         1,
		Visited: []PointRecord{
			{PointSummary: sweep.PointSummary{Index: 5, Key: "k5"}, Round: 1},
			{PointSummary: sweep.PointSummary{Index: 2, Key: "k2"}, Round: 2, Rung: 1},
		},
	}
	if err := saveCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	got, found, err := loadCheckpoint(dir, fp, 6)
	if err != nil || !found {
		t.Fatalf("checkpoint load: found=%v err=%v", found, err)
	}
	if got.Round != 3 || got.Radius != 2 || got.Quiet != 1 || len(got.Visited) != 2 ||
		got.Visited[0].Index != 5 || got.Visited[1].Rung != 1 {
		t.Errorf("checkpoint round-trip: %+v", got)
	}

	if _, _, err := loadCheckpoint(dir, "0000000000000000", 6); err == nil {
		t.Error("fingerprint mismatch must be rejected")
	}
}

// TestDeterministicTrajectory pins the core reproducibility promise:
// two runs of one spec visit the same points in the same order.
func TestDeterministicTrajectory(t *testing.T) {
	sw := paperGrid(t)
	ex := Explore{Name: "det", Sweep: sw, Strategy: Strategy{Seed: 3, Samples: 2}}

	var logs []string
	for i := 0; i < 2; i++ {
		rn := scenario.NewRunner(2)
		got, err := Run(context.Background(), rn, ex, Options{}, nil)
		rn.Close()
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, visitLog(got))
	}
	if logs[0] != logs[1] {
		t.Errorf("trajectories diverge:\n%s\nvs\n%s", logs[0], logs[1])
	}
}

// TestBudgetStopsSearch pins the budget contract: the search visits at
// most Budget distinct points and reports Exhausted, not Converged,
// when the budget cut it short.
func TestBudgetStopsSearch(t *testing.T) {
	sw := paperGrid(t)
	rn := scenario.NewRunner(2)
	defer rn.Close()
	got, err := Run(context.Background(), rn, Explore{Name: "budget", Sweep: sw}, Options{Budget: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Visited > 5 {
		t.Errorf("visited %d points over a budget of 5", got.Visited)
	}
	if !got.Exhausted || got.Converged {
		t.Errorf("budget-cut run must be exhausted, not converged: %+v", got)
	}
	if got.Budget != 5 {
		t.Errorf("reported budget %d, want 5", got.Budget)
	}
}

// TestRungLadder exercises successive halving: with a one-run probe
// rung configured, candidates the full-fidelity front already dominates
// are culled at the rung (recorded with its fidelity, never promoted,
// never on a front).
func TestRungLadder(t *testing.T) {
	sw := paperGrid(t)
	sw.Pareto = []sweep.ParetoPair{{X: "l2_bytes", Y: "makespan"}}
	rn := scenario.NewRunner(2)
	defer rn.Close()
	got, err := Run(context.Background(), rn, Explore{
		Name:     "rungs",
		Sweep:    sw,
		Strategy: Strategy{Rungs: []int{1}},
	}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	culled := 0
	for _, p := range got.Points {
		if p.Rung != 0 {
			culled++
		}
	}
	if culled == 0 {
		t.Fatal("expected the probe rung to cull at least one dominated candidate")
	}
	if got.FullFidelity+culled != got.Visited {
		t.Errorf("fidelity accounting: %d full + %d culled != %d visited", got.FullFidelity, culled, got.Visited)
	}
	onFront := map[int]bool{}
	for _, f := range got.Pareto {
		for _, idx := range f.Indices {
			onFront[idx] = true
		}
	}
	for _, p := range got.Points {
		if p.Rung != 0 && onFront[p.Index] {
			t.Errorf("culled point %d sits on a front", p.Index)
		}
	}
}
