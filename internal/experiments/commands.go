package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
)

// Flags bundles the CLI knobs that select a harness configuration.
type Flags struct {
	Small   bool
	Runs    int
	Solver  string // mckp | ilp
	Workers int
}

// ConfigFromFlags resolves the flag spellings into a Config in one
// place. Unknown spellings fail with the valid values spelled out.
func ConfigFromFlags(f Flags) (Config, error) {
	cfg := Default()
	if f.Small {
		cfg = Small()
	}
	if f.Runs != 0 {
		cfg.ProfileRuns = f.Runs
	}
	cfg.Workers = f.Workers
	solver, err := core.ParseSolver(f.Solver)
	if err != nil {
		return cfg, err
	}
	cfg.Solver = solver
	return cfg, nil
}

// CommandOutput is one CLI command's rendered artifacts: the text the
// command prints, plus the machine-readable documents the -json mode
// emits (each marshals to a versioned report envelope).
type CommandOutput struct {
	Text      string
	Documents []interface{}
}

// commandScenarios names the built-in scenarios each command consumes.
// With a shared Runner the scenarios memoize across commands, so `all`
// simulates each study once no matter how many commands reuse it.
var commandScenarios = map[string][]string{
	"table1":      {ScenarioApp1},
	"table2":      {ScenarioApp2},
	"fig2":        {ScenarioApp1, ScenarioApp2},
	"fig3":        {ScenarioApp1, ScenarioApp2},
	"headline":    {ScenarioApp1, ScenarioApp2, ScenarioMpeg2Big},
	"compose":     {ScenarioJPEG1Solo, ScenarioApp1},
	"granularity": {ScenarioApp1Optimize, ScenarioApp1Column},
	"split":       {ScenarioApp1, ScenarioApp1Split},
	"migration":   {ScenarioApp1, ScenarioApp1Migration},
	"assign":      {ScenarioApp1, ScenarioApp2},
	"curves":      {ScenarioApp1Curves, ScenarioApp2Curves},
}

// allOrder is the command sequence of `compmem all`.
var allOrder = []string{"headline", "table1", "table2", "fig2", "fig3", "compose", "granularity", "split", "migration", "assign"}

// CommandNames lists the scenario-backed CLI commands in usage order.
func CommandNames() []string {
	return []string{"table1", "table2", "fig2", "fig3", "headline", "compose", "granularity", "split", "migration", "assign", "curves", "all"}
}

// RunCommand executes a CLI command through the scenario layer: it
// resolves the command to its built-in scenarios, runs them on the
// Runner (memoized, batched over the worker pool), and renders the text
// plus the structured documents.
func RunCommand(cmd string, cfg Config, rn *scenario.Runner) (CommandOutput, error) {
	if cmd == "all" {
		var out CommandOutput
		var b strings.Builder
		for _, c := range allOrder {
			sub, err := RunCommand(c, cfg, rn)
			if err != nil {
				return out, fmt.Errorf("%s: %w", c, err)
			}
			b.WriteString(sub.Text)
			out.Documents = append(out.Documents, sub.Documents...)
		}
		out.Text = b.String()
		return out, nil
	}
	names, ok := commandScenarios[cmd]
	if !ok {
		return CommandOutput{}, fmt.Errorf("unknown command %q", cmd)
	}
	defs := BuiltinScenarios(cfg)
	specs := make([]scenario.Scenario, len(names))
	for i, n := range names {
		specs[i] = defs[n]
	}
	results := rn.RunBatch(specs)
	byName := make(map[string]*scenario.Result, len(results))
	for i, r := range results {
		// The column-caching leg of X2 is expected to fail (the paper's
		// infeasibility point); every other scenario failure fails the
		// command.
		if r.Error != "" && !(cmd == "granularity" && names[i] == ScenarioApp1Column) {
			return CommandOutput{}, fmt.Errorf("scenario %s: %s", names[i], r.Error)
		}
		byName[names[i]] = r
	}
	return renderCommand(cmd, cfg, byName)
}

// renderCommand produces the stdout text of one command from its
// scenario results, plus the structured documents.
func renderCommand(cmd string, cfg Config, res map[string]*scenario.Result) (CommandOutput, error) {
	var out CommandOutput
	var b strings.Builder
	println_ := func(v fmt.Stringer) { // fmt.Println(v) equivalent
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	switch cmd {
	case "table1":
		t := AllocationTableFromResult(res[ScenarioApp1], "Table 1: allocated L2 units, 2 jpegs & canny")
		println_(t)
		out.Documents = append(out.Documents, t)
	case "table2":
		t := AllocationTableFromResult(res[ScenarioApp2], "Table 2: allocated L2 units, mpeg2")
		println_(t)
		out.Documents = append(out.Documents, t)
	case "fig2":
		for _, name := range []string{ScenarioApp1, ScenarioApp2} {
			r := res[name]
			chart := Figure2FromResult(r)
			println_(chart)
			fmt.Fprintf(&b, "total: shared %d vs partitioned %d (%.2fx)\n\n",
				r.Shared.TotalMisses, r.Partitioned.TotalMisses, r.MissRatio())
			out.Documents = append(out.Documents, chart, report.NewEnvelope("figure2.totals", map[string]interface{}{
				"app":         r.Shared.App,
				"shared":      r.Shared.TotalMisses,
				"partitioned": r.Partitioned.TotalMisses,
				"ratio":       r.MissRatio(),
			}))
		}
	case "fig3":
		for _, name := range []string{ScenarioApp1, ScenarioApp2} {
			chart, rep := Figure3FromResult(res[name])
			println_(chart)
			fmt.Fprintf(&b, "compositional at the paper's 2%% threshold: %v (max %.3f%%, mean %.3f%%)\n\n",
				rep.Compositional(0.02), rep.MaxRelDiff*100, rep.MeanRelDiff*100)
			out.Documents = append(out.Documents, chart, report.NewEnvelope("figure3.compose", rep))
		}
	case "headline":
		t, rows := HeadlineFromResults(res[ScenarioApp1], res[ScenarioApp2], res[ScenarioMpeg2Big])
		println_(t)
		out.Documents = append(out.Documents, t, report.NewEnvelope("headline", rows))
	case "compose":
		cr, t := CompositionFromResults(res[ScenarioJPEG1Solo], res[ScenarioApp1])
		println_(t)
		out.Documents = append(out.Documents, t, report.NewEnvelope("composition", cr))
	case "granularity":
		t := GranularityFromResults(cfg, res[ScenarioApp1Optimize], res[ScenarioApp1Column])
		println_(t)
		out.Documents = append(out.Documents, t)
	case "split":
		t := SplitFromResults(res[ScenarioApp1], res[ScenarioApp1Split])
		println_(t)
		out.Documents = append(out.Documents, t)
	case "migration":
		t := MigrationFromResults(res[ScenarioApp1], res[ScenarioApp1Migration])
		println_(t)
		out.Documents = append(out.Documents, t)
	case "assign":
		for _, name := range []string{ScenarioApp1, ScenarioApp2} {
			t := AssignmentFromResult(res[name], cfg.Platform.NumCPUs)
			println_(t)
			out.Documents = append(out.Documents, t)
		}
	case "curves":
		for _, name := range []string{ScenarioApp1Curves, ScenarioApp2Curves} {
			r := res[name]
			b.WriteString(CurvesText(r.Scenario.Workload, r.Curves))
			out.Documents = append(out.Documents, report.NewEnvelope("curves", map[string]interface{}{
				"app":    r.Scenario.Workload,
				"curves": r.Curves,
			}))
		}
	default:
		return out, fmt.Errorf("unknown command %q", cmd)
	}
	out.Text = b.String()
	return out, nil
}
