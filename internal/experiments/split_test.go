package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestSplitSectionsSmall(t *testing.T) {
	out := command(t, "split").Text
	if !strings.Contains(out, "split i/d") || !strings.Contains(out, "task-unified") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestSplitEntitiesModel(t *testing.T) {
	w := workloads.JPEGCanny(workloads.Small, nil)
	app, err := w.Factory()
	if err != nil {
		t.Fatal(err)
	}
	unified := len(app.Entities())
	app.SplitTaskSections = true
	split := app.Entities()
	// 15 tasks: one extra entity each.
	if len(split) != unified+15 {
		t.Fatalf("split entities = %d, want %d", len(split), unified+15)
	}
	if core.EntityByName(split, "FrontEnd1.text") == nil ||
		core.EntityByName(split, "FrontEnd1.data") == nil {
		t.Error("split entity names missing")
	}
	if core.EntityByName(split, "FrontEnd1") != nil {
		t.Error("unified entity still present after split")
	}
	// Region coverage must be preserved.
	covered := map[int32]bool{}
	for _, e := range split {
		for _, r := range e.Regions {
			covered[int32(r)] = true
		}
	}
	for _, r := range app.AS.Regions() {
		if !covered[int32(r.ID)] {
			t.Errorf("region %s not covered after split", r.Name)
		}
	}
}

func TestMigrationSmall(t *testing.T) {
	out := command(t, "migration").Text
	if !strings.Contains(out, "migrating misses") {
		t.Errorf("table malformed:\n%s", out)
	}
	// The partitioned row's shift must be tiny — compositionality holds
	// under dynamic scheduling. Parse is brittle; re-derive from the
	// static and migrating studies behind the table.
	static := study(t, ScenarioApp1).Partitioned
	mig := study(t, ScenarioApp1Migration).Partitioned
	total := float64(static.TotalMisses)
	for _, e := range static.Entities {
		o := mig.Entity(e.Name)
		if o == nil {
			continue
		}
		d := float64(e.Misses) - float64(o.Misses)
		if d < 0 {
			d = -d
		}
		if d/total > 0.02 {
			t.Errorf("entity %s shifted %.2f%% under migration (partitioned should be schedule-insensitive)",
				e.Name, d/total*100)
		}
	}
}
