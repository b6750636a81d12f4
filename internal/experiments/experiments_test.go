package experiments

import (
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/scenario"
)

// The experiment tests run at Small scale; the paper-scale shape
// assertions live in the root package's TestPaperShape.

// studyRunner is shared by the Small-scale study tests, so each
// built-in scenario simulates once across them.
var studyRunner = scenario.NewRunner(0)

// study runs one built-in scenario at Small scale.
func study(t *testing.T, name string) *scenario.Result {
	t.Helper()
	spec, ok := BuiltinScenario(Small(), name)
	if !ok {
		t.Fatalf("no built-in %q", name)
	}
	r, err := studyRunner.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// command renders one CLI command at Small scale.
func command(t *testing.T, cmd string) CommandOutput {
	t.Helper()
	out, err := RunCommand(cmd, Small(), studyRunner)
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return out
}

// payload returns the payload of the command's envelope of one kind.
func payload(t *testing.T, out CommandOutput, kind string) interface{} {
	t.Helper()
	for _, d := range out.Documents {
		if env, ok := d.(report.Envelope); ok && env.Kind == kind {
			return env.Payload
		}
	}
	t.Fatalf("no %q document", kind)
	return nil
}

func TestApp1StudySmall(t *testing.T) {
	s := study(t, ScenarioApp1)
	if s.Shared.TotalMisses == 0 || s.Partitioned.TotalMisses == 0 {
		t.Fatal("no misses measured")
	}
	if s.MissRatio() <= 0 {
		t.Error("no ratio")
	}
	// Even the small workload must be compositional.
	if s.Compose.MaxRelDiff > 0.10 {
		t.Errorf("max rel diff %.3f too large", s.Compose.MaxRelDiff)
	}
	// Tables and figures render.
	tab := AllocationTableFromResult(s, "Table 1")
	if !strings.Contains(tab.String(), "FrontEnd1") {
		t.Error("allocation table missing task row")
	}
	if !strings.Contains(tab.String(), "TOTAL") {
		t.Error("allocation table missing total")
	}
	f2 := Figure2FromResult(s)
	if len(f2.Pairs) == 0 {
		t.Error("figure 2 empty")
	}
	f3, rep := Figure3FromResult(s)
	if len(f3.Pairs) == 0 || rep == nil {
		t.Error("figure 3 empty")
	}
	// X3 renders for 4 CPUs.
	x3 := AssignmentFromResult(s, 4)
	if !strings.Contains(x3.String(), "LPT") {
		t.Error("assignment table missing LPT row")
	}
}

func TestApp2StudySmall(t *testing.T) {
	s := study(t, ScenarioApp2)
	if s.Shared.TotalMisses == 0 {
		t.Fatal("no misses measured")
	}
	tab := AllocationTableFromResult(s, "Table 2")
	for _, name := range []string{"vld", "memMan", "predictRD"} {
		if !strings.Contains(tab.String(), name) {
			t.Errorf("table 2 missing %q", name)
		}
	}
	if s.Compose.MaxRelDiff > 0.10 {
		t.Errorf("max rel diff %.3f too large", s.Compose.MaxRelDiff)
	}
}

func TestHeadlineSmall(t *testing.T) {
	out := command(t, "headline")
	rows := payload(t, out, "headline").([]HeadlineRow)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 2 apps + 1MB variant", len(rows))
	}
	for _, want := range []string{"2jpeg+canny", "mpeg2", "1MB"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("headline missing %q", want)
		}
	}
	// The 1 MB shared cache must not be worse than the 512 KB shared.
	if rows[2].SharedMiss > rows[1].SharedMiss {
		t.Errorf("1MB shared misses %d > 512KB shared %d", rows[2].SharedMiss, rows[1].SharedMiss)
	}
}

func TestCompositionSmall(t *testing.T) {
	out := command(t, "compose")
	res := payload(t, out, "composition").(*CompositionResult)
	if res.SharedSolo == 0 || res.PartSolo == 0 {
		t.Fatal("no solo misses measured")
	}
	// The partitioned system must be far more compositional than the
	// shared one: adding co-runners barely changes jpeg1's misses.
	if res.PartShift() > 0.05 {
		t.Errorf("partitioned shift %.3f, want < 0.05", res.PartShift())
	}
	if res.SharedShift() < 2*res.PartShift() {
		t.Errorf("shared shift %.3f not clearly larger than partitioned %.3f",
			res.SharedShift(), res.PartShift())
	}
	if !strings.Contains(out.Text, "co-scheduled") {
		t.Error("table malformed")
	}
}

func TestGranularitySmall(t *testing.T) {
	out := command(t, "granularity").Text
	if !strings.Contains(out, "column caching") || !strings.Contains(out, "set partitioning") {
		t.Errorf("granularity table malformed:\n%s", out)
	}
}

func TestStudyMissRatioZeroSafe(t *testing.T) {
	r := &scenario.Result{Shared: &scenario.RunSummary{}, Partitioned: &scenario.RunSummary{}}
	if r.MissRatio() != 0 {
		t.Error("zero-division in MissRatio")
	}
}
