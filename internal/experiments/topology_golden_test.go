package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
)

// topology_golden_test.go is the differential proof of the composable
// memory-hierarchy redesign: the digests in testdata/topology_golden.json
// were captured on the hard-coded L1+L2 implementation (before
// cache.Topology existed), over every legacy CLI command and the full
// JPEGCanny + MPEG2 study documents — per-entity statistics, makespans,
// task cycles, allocations, curves — under BOTH execution engines. The
// default two-level topology must reproduce them bit-identically. Specs
// now normalize the word engine to the production one, so the "|word"
// digests are computed on the merged engine; the direct differential
// suites (TestEngineDifferentialStudies, TestDeepTopologiesEndToEnd)
// keep the word engine itself pinned.
//
// Regenerate (only legitimate when a simulation-semantics change is
// intended and explained in the commit):
//
//	REGEN_TOPOLOGY_GOLDEN=1 go test ./internal/experiments -run TestDefaultTopologyGolden
const topologyGoldenPath = "testdata/topology_golden.json"

// goldenCommands are the legacy CLI commands whose rendered text is
// pinned ("all" is their concatenation and adds no coverage).
var goldenCommands = []string{
	"table1", "table2", "fig2", "fig3", "headline", "compose",
	"granularity", "split", "migration", "assign", "curves",
}

// studyDoc is the physics of a scenario result — everything except the
// spec echo, whose wire shape the topology redesign legitimately extends.
type studyDoc struct {
	Shared      *scenario.RunSummary      `json:"shared"`
	Partitioned *scenario.RunSummary      `json:"partitioned"`
	Optimize    *scenario.OptimizeSummary `json:"optimize"`
	Compose     *scenario.ComposeSummary  `json:"compose"`
	Curves      []scenario.Curve          `json:"curves"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// topologyDigests runs the whole legacy surface at small scale under
// both engines and digests every observable.
func topologyDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, eng := range []string{"merged", "word"} {
		cfg := Small()
		ee, err := platform.ParseEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Platform.Engine = ee
		rn := scenario.NewRunner(0)
		for _, cmd := range goldenCommands {
			res, err := RunCommand(cmd, cfg, rn)
			if err != nil {
				t.Fatalf("%s (%s): %v", cmd, eng, err)
			}
			out["cmd:"+cmd+"|"+eng] = sha([]byte(res.Text))
		}
		for _, name := range []string{ScenarioApp1, ScenarioApp2} {
			spec, ok := BuiltinScenario(cfg, name)
			if !ok {
				t.Fatalf("no built-in %q", name)
			}
			r, err := rn.Run(spec)
			if err != nil {
				t.Fatalf("study %s (%s): %v", name, eng, err)
			}
			doc, err := json.Marshal(studyDoc{
				Shared:      r.Shared,
				Partitioned: r.Partitioned,
				Optimize:    r.Optimize,
				Compose:     r.Compose,
				Curves:      r.Curves,
			})
			if err != nil {
				t.Fatal(err)
			}
			out["study:"+name+"|"+eng] = sha(doc)
		}
	}
	return out
}

// TestDefaultTopologyGolden proves the default two-level topology
// bit-identical to the pre-redesign memory system for all 11 legacy
// commands and both full application studies.
func TestDefaultTopologyGolden(t *testing.T) {
	got := topologyDigests(t)
	if os.Getenv("REGEN_TOPOLOGY_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(topologyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(topologyGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d digests", topologyGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(topologyGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with REGEN_TOPOLOGY_GOLDEN=1 on a pre-redesign tree): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, want %s (default topology no longer bit-identical to the pre-redesign engine)", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d, want %d", len(got), len(want))
	}
}
