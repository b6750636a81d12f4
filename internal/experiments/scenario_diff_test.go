package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioRoundTripIdenticalResults is the serialization half of
// the acceptance criteria: a Scenario survives spec → JSON → spec with
// identical simulation results.
func TestScenarioRoundTripIdenticalResults(t *testing.T) {
	cfg := Small()
	cfg.ProfileRuns = 1
	spec, ok := BuiltinScenario(cfg, ScenarioApp1)
	if !ok {
		t.Fatal("missing builtin app1")
	}

	rn := scenario.NewRunner(1)
	direct, err := rn.Run(spec)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := scenario.Resolve(raw, nil)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	// A fresh runner so nothing is served from the first run's memo.
	rn2 := scenario.NewRunner(1)
	reran, err := rn2.Run(parsed)
	if err != nil {
		t.Fatalf("round-tripped run: %v", err)
	}

	if direct.Key != reran.Key {
		t.Fatalf("content keys differ: %s vs %s", direct.Key, reran.Key)
	}
	a, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reran)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("round-tripped scenario produced different results\n--- direct ---\n%s\n--- round-tripped ---\n%s", a, b)
	}
}
