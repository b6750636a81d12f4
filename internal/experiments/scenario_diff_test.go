package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// legacyArtifacts runs the pre-scenario experiment pipeline once per
// legacy function — exactly the calls the old cmd/compmem made — and
// caches the pieces each command rendered from. Every simulation is
// deterministic (see determinism tests), so sharing a study across the
// commands that re-ran it is output-identical to the old per-command
// runs.
type legacyArtifacts struct {
	cfg    Config
	s1, s2 *Study
}

func newLegacyArtifacts(t *testing.T, cfg Config) *legacyArtifacts {
	t.Helper()
	s1, err := App1(cfg)
	if err != nil {
		t.Fatalf("legacy App1: %v", err)
	}
	s2, err := App2(cfg)
	if err != nil {
		t.Fatalf("legacy App2: %v", err)
	}
	return &legacyArtifacts{cfg: cfg, s1: s1, s2: s2}
}

// legacyText renders one command the way the old cmd/compmem run()
// printed it. The fmt verbs, titles and spacing are copied verbatim
// from the pre-scenario main.go; this is the frozen reference the
// scenario layer must reproduce bit-identically.
func (l *legacyArtifacts) legacyText(t *testing.T, cmd string) string {
	t.Helper()
	cfg := l.cfg
	var b strings.Builder
	println_ := func(v fmt.Stringer) {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	switch cmd {
	case "table1":
		println_(AllocationTable(l.s1, "Table 1: allocated L2 units, 2 jpegs & canny"))
	case "table2":
		println_(AllocationTable(l.s2, "Table 2: allocated L2 units, mpeg2"))
	case "fig2":
		for _, s := range []*Study{l.s1, l.s2} {
			println_(Figure2(s))
			fmt.Fprintf(&b, "total: shared %d vs partitioned %d (%.2fx)\n\n",
				s.Shared.TotalMisses(), s.Part.TotalMisses(), s.MissRatio())
		}
	case "fig3":
		for _, s := range []*Study{l.s1, l.s2} {
			chart, rep := Figure3(s)
			println_(chart)
			fmt.Fprintf(&b, "compositional at the paper's 2%% threshold: %v (max %.3f%%, mean %.3f%%)\n\n",
				rep.Compositional(0.02), rep.MaxRelDiff*100, rep.MeanRelDiff*100)
		}
	case "curves":
		for _, app1 := range []bool{true, false} {
			var w core.Workload
			name := "2jpeg+canny"
			if app1 {
				w = workloads.JPEGCanny(cfg.Scale, nil)
			} else {
				w = workloads.MPEG2(cfg.Scale, nil)
				name = "mpeg2"
			}
			curves, err := core.Profile(w, core.OptimizeConfig{
				Platform: cfg.Platform, Runs: cfg.ProfileRuns, Solver: cfg.Solver,
				Engine: cfg.Engine, Workers: cfg.Workers,
			})
			if err != nil {
				t.Fatalf("legacy curves: %v", err)
			}
			fmt.Fprintf(&b, "miss curves m_i(z) for %s (misses at 1..128 units):\n", name)
			for _, c := range curves {
				if c.Accesses == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %-14s acc=%8.0f  ", c.Entity, c.Accesses)
				for k, m := range c.Misses {
					fmt.Fprintf(&b, "%d:%.0f ", c.Sizes[k], m)
				}
				b.WriteByte('\n')
			}
		}
	case "headline":
		tab, _, err := Headline(cfg)
		if err != nil {
			t.Fatalf("legacy Headline: %v", err)
		}
		println_(tab)
	case "compose":
		_, tab, err := Composition(cfg)
		if err != nil {
			t.Fatalf("legacy Composition: %v", err)
		}
		println_(tab)
	case "granularity":
		tab, err := Granularity(cfg)
		if err != nil {
			t.Fatalf("legacy Granularity: %v", err)
		}
		println_(tab)
	case "split":
		tab, err := SplitSections(cfg)
		if err != nil {
			t.Fatalf("legacy SplitSections: %v", err)
		}
		println_(tab)
	case "migration":
		tab, err := Migration(cfg)
		if err != nil {
			t.Fatalf("legacy Migration: %v", err)
		}
		println_(tab)
	case "assign":
		println_(Assignment(l.s1, cfg.Platform.NumCPUs))
		println_(Assignment(l.s2, cfg.Platform.NumCPUs))
	default:
		t.Fatalf("legacy renderer: unknown command %q", cmd)
	}
	return b.String()
}

// TestScenarioLayerMatchesLegacyCommands is the differential proof of
// the API redesign: every legacy CLI command, executed through the
// declarative scenario layer, prints bit-identical output to the
// pre-scenario function-per-figure pipeline.
func TestScenarioLayerMatchesLegacyCommands(t *testing.T) {
	cfg := Small()
	cfg.ProfileRuns = 1
	leg := newLegacyArtifacts(t, cfg)
	rn := scenario.NewRunner(cfg.Workers)

	commands := []string{"table1", "table2", "fig2", "fig3", "headline", "compose", "granularity", "split", "migration", "assign", "curves"}
	legacy := make(map[string]string, len(commands))
	for _, cmd := range commands {
		legacy[cmd] = leg.legacyText(t, cmd)
		out, err := RunCommand(cmd, cfg, rn)
		if err != nil {
			t.Fatalf("RunCommand(%s): %v", cmd, err)
		}
		if out.Text != legacy[cmd] {
			t.Errorf("command %s: scenario output differs from legacy\n--- legacy ---\n%s\n--- scenario ---\n%s", cmd, legacy[cmd], out.Text)
		}
		if len(out.Documents) == 0 {
			t.Errorf("command %s: no machine-readable documents", cmd)
		}
	}

	// `all` is the legacy concatenation in the legacy order.
	var want strings.Builder
	for _, c := range allOrder {
		want.WriteString(legacy[c])
	}
	out, err := RunCommand("all", cfg, rn)
	if err != nil {
		t.Fatalf("RunCommand(all): %v", err)
	}
	if out.Text != want.String() {
		t.Errorf("command all: scenario output differs from legacy concatenation")
	}

	// The shared runner must have deduplicated the studies: far fewer
	// stage executions than stage requests.
	st := rn.Stats()
	if st.MemoHits == 0 {
		t.Errorf("runner memoization never hit (stats %+v)", st)
	}
	t.Logf("runner stats: %+v", st)
}

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
