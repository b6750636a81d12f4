package sweep_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// paperGridGoldenPath holds the digests of a cold small paper-grid
// sweep on a fresh runner: its rendered text, its sweep.result envelope
// (runner_stats included) and its sweep.point stream, so the
// aggregation (points, sensitivity tables, extremes, Pareto fronts) and
// the result documents it streams are pinned byte for byte.
//
// Regenerate (only when a change of the grid's outcomes, documents or
// rendering is intended and explained in the commit):
//
//	REGEN_SWEEP_GOLDEN=1 go test ./internal/sweep -run TestPaperGridAggregateGolden
const paperGridGoldenPath = "testdata/paper_grid_golden.json"

// TestPaperGridAggregateGolden checks a fresh runner's cold small
// paper-grid sweep against paperGridGoldenPath.
func TestPaperGridAggregateGolden(t *testing.T) {
	sw, ok := experiments.BuiltinSweep(experiments.Small(), experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	rn := scenario.NewRunner(2)
	defer rn.Close()
	var stream bytes.Buffer
	res, err := sweep.Execute(context.Background(), rn, sw, func(p sweep.PointResult) {
		b, err := json.Marshal(p.Envelope())
		if err != nil {
			t.Error(err)
		}
		stream.Write(append(b, '\n'))
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := json.Marshal(res.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	got := map[string]string{
		"render": digest([]byte(sweep.Render(res))),
		"result": digest(agg),
		"points": digest(stream.Bytes()),
	}

	if os.Getenv("REGEN_SWEEP_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(paperGridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGridGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", paperGridGoldenPath)
		return
	}
	raw, err := os.ReadFile(paperGridGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with REGEN_SWEEP_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"render", "result", "points"} {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
}
