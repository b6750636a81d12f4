package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// resultHitSpecs returns every built-in scenario at small scale, every
// point of the small paper grid, and a renamed copy and an engine twin
// of the first application study.
func resultHitSpecs(t *testing.T) (experiments.Config, sweep.Sweep, []scenario.Scenario) {
	t.Helper()
	cfg := experiments.Small()
	defs := experiments.BuiltinScenarios(cfg)
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	var specs []scenario.Scenario
	for _, n := range names {
		specs = append(specs, defs[n])
	}
	sw, ok := experiments.BuiltinSweep(cfg, experiments.SweepPaperGrid)
	if !ok {
		t.Fatal("no built-in paper grid")
	}
	points, _, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		specs = append(specs, p.Scenario)
	}
	renamed := defs[experiments.ScenarioApp1]
	renamed.Name = "app1-renamed"
	twin := defs[experiments.ScenarioApp1]
	twin.Name = "app1-twin"
	twin.ExecEngine, twin.ProfileEngine = "word", "bank"
	return cfg, sw, append(specs, renamed, twin)
}

// sectionsOf returns a result's section pointers, which a result hit
// shares with the entry it was served from.
func sectionsOf(r *scenario.Result) [5]any {
	return [5]any{r.Shared, r.Partitioned, r.Optimize, r.Compose, r.Curves}
}

// sameSections reports whether two results hold the very same sections.
func sameSections(a, b *scenario.Result) bool {
	if len(a.Curves) != len(b.Curves) || len(a.Curves) > 0 && &a.Curves[0] != &b.Curves[0] {
		return false
	}
	return a.Shared == b.Shared && a.Partitioned == b.Partitioned && a.Optimize == b.Optimize && a.Compose == b.Compose
}

// TestMemoResultHitsMatchColdResults checks every built-in scenario and
// every small paper-grid point, served as a result hit, is
// JSON-identical to its cold result, and that renamed copies and engine
// twins keep their own spec and name. Each content key runs once on a
// fresh runner, a miss; a copy's cold result is that result under the
// copy's own normalized spec, which is what a fresh runner returns for
// it.
func TestMemoResultHitsMatchColdResults(t *testing.T) {
	_, _, specs := resultHitSpecs(t)
	keys := make([]string, len(specs))
	var firsts []scenario.Scenario
	seen := map[string]bool{}
	for i, s := range specs {
		var err error
		if keys[i], err = s.Key(); err != nil {
			t.Fatal(err)
		}
		if !seen[keys[i]] {
			seen[keys[i]] = true
			firsts = append(firsts, s)
		}
	}
	rn := scenario.NewRunner(2)
	cold := map[string]*scenario.Result{}
	for _, r := range rn.RunBatch(firsts) {
		cold[r.Key] = r
	}

	before := rn.Stats()
	hits := rn.RunBatch(specs)
	if d := rn.Stats().Delta(before); d.ProfileRuns != 0 || d.RunRuns != 0 || d.TraceRuns != 0 {
		t.Errorf("the warm batch simulated: %+v", d)
	}
	for i, s := range specs {
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		want := *cold[keys[i]]
		want.Scenario = &n
		wantDoc, _ := json.Marshal(&want)
		got, err := json.Marshal(hits[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantDoc) {
			t.Errorf("spec %d (%s): the result hit differs from the cold result:\n%s\nvs\n%s", i, s.Name, got, wantDoc)
		}
		if hits[i].Scenario.Name != s.Name {
			t.Errorf("spec %d: a result hit must keep its own name %q, got %q", i, s.Name, hits[i].Scenario.Name)
		}
		// Failures are never cached: the column-caching leg re-executes.
		if want.Error == "" && !sameSections(hits[i], cold[keys[i]]) {
			t.Errorf("spec %d (%s): not served from its result entry", i, s.Name)
		}
	}
}

// TestMemoResultSectionsStayImmutable checks the consumers of results —
// every CLI command, sweep metrics and aggregation, and the serve
// mode's encoding — only read the sections result hits share: after
// running all of them over hits, each result entry's sections are
// deep-equal to a snapshot taken when the entry was inserted.
func TestMemoResultSectionsStayImmutable(t *testing.T) {
	cfg, sw, specs := resultHitSpecs(t)
	rn := scenario.NewRunner(2)
	inserted := rn.RunBatch(specs)
	snapshots := make([]*scenario.Result, len(specs))
	for i, r := range inserted {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		snapshots[i] = new(scenario.Result)
		if err := json.Unmarshal(b, snapshots[i]); err != nil {
			t.Fatal(err)
		}
	}

	for _, cmd := range []string{"all", "curves"} {
		if _, err := experiments.RunCommand(cmd, cfg, rn); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	var points int
	res, err := sweep.Execute(context.Background(), rn, sw, func(p sweep.PointResult) {
		if sweep.Summarize(p.Index, p.Coords, p.Result, nil, 0).Metrics != nil {
			points++
		}
	})
	if err != nil || res.Failed != 0 || points != len(res.Points) {
		t.Fatalf("warm sweep: %v, %d failed, %d of %d points with metrics", err, res.Failed, points, len(res.Points))
	}
	body, err := json.Marshal(map[string]any{"scenarios": specs})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(cfg, rn)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reason":"complete"`) {
		t.Fatalf("serve batch: %d\n%s", rec.Code, rec.Body.String())
	}

	for i, r := range inserted {
		if r.Error != "" {
			continue
		}
		if hit, err := rn.Run(specs[i]); err != nil || !sameSections(hit, r) {
			t.Fatalf("spec %d: the entry inserted by the first batch is gone (err %v)", i, err)
		}
		for k, sec := range sectionsOf(r) {
			if want := sectionsOf(snapshots[i])[k]; !reflect.DeepEqual(sec, want) {
				t.Errorf("spec %d (%s): section %d changed after consumers read it:\n%+v\nwant %+v", i, specs[i].Name, k, sec, want)
			}
		}
	}
}
