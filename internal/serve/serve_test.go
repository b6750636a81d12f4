package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := experiments.Small()
	cfg.ProfileRuns = 1
	srv := httptest.NewServer(New(cfg, scenario.NewRunner(2)))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthAndListings(t *testing.T) {
	srv := testServer(t)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	var env struct {
		SchemaVersion int      `json:"schema_version"`
		Kind          string   `json:"kind"`
		Payload       []string `json:"payload"`
	}
	resp, err = http.Get(srv.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.SchemaVersion != report.SchemaVersion || env.Kind != "workloads" {
		t.Errorf("bad envelope: %+v", env)
	}
	found := false
	for _, w := range env.Payload {
		if w == "mpeg2" {
			found = true
		}
	}
	if !found {
		t.Errorf("mpeg2 missing from workloads: %v", env.Payload)
	}

	resp, err = http.Get(srv.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scen struct {
		Payload map[string]scenario.Scenario `json:"payload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scen); err != nil {
		t.Fatal(err)
	}
	if _, ok := scen.Payload[experiments.ScenarioApp1]; !ok {
		t.Errorf("built-in %q missing from /v1/scenarios", experiments.ScenarioApp1)
	}
}

// requireStreamEnd asserts an NDJSON line is the terminal stream.end
// envelope with the given delivery count and reason.
func requireStreamEnd(t *testing.T, line string, delivered, expected int, reason string) {
	t.Helper()
	var env struct {
		SchemaVersion int       `json:"schema_version"`
		Kind          string    `json:"kind"`
		Payload       StreamEnd `json:"payload"`
	}
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		t.Fatalf("bad stream.end line %q: %v", line, err)
	}
	if env.Kind != StreamEndKind || env.SchemaVersion != report.SchemaVersion {
		t.Fatalf("terminal envelope: kind %q version %d", env.Kind, env.SchemaVersion)
	}
	if env.Payload.Delivered != delivered || env.Payload.Expected != expected || env.Payload.Reason != reason {
		t.Fatalf("stream.end: want %d/%d %q, got %+v", delivered, expected, reason, env.Payload)
	}
}

// TestHealthReportsMemoOccupancy checks /healthz reports the shared
// memo's occupancy next to runner_stats, and that a served batch stays
// resident: resubmitting it is a result memo hit, counted as the one
// stage lookup it replaces, with no stage re-run.
func TestHealthReportsMemoOccupancy(t *testing.T) {
	srv := testServer(t)
	if _, h := getHealth(t, srv.URL); h.Memo.Entries != 0 || h.Memo.Bytes != 0 || h.Memo.Budget <= 0 {
		t.Fatalf("idle memo: %+v", h.Memo)
	}
	const spec = `{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"}`
	if status, body := postBatch(t, srv.URL, spec); status != http.StatusOK || !strings.Contains(body, `"reason":"complete"`) {
		t.Fatalf("batch: %d\n%s", status, body)
	}
	_, h := getHealth(t, srv.URL)
	// Two stages, the trace capture and the profile it feeds, the
	// profile's shared repetition, and the scenario's result entry.
	if h.Memo.Entries != 4 || h.Memo.Bytes <= 0 || h.Memo.Bytes > h.Memo.Budget {
		t.Errorf("memo after one batch: %+v", h.Memo)
	}
	if h.Runner.StageRuns != 2 || h.Runner.MemoEvictions != 0 {
		t.Errorf("runner stats after one batch: %+v", h.Runner)
	}
	postBatch(t, srv.URL, spec)
	_, again := getHealth(t, srv.URL)
	if again.Runner.StageRuns != 2 || again.Runner.MemoHits != 1 || again.Memo != h.Memo {
		t.Errorf("the resubmitted batch must be one memo hit over an unchanged memo: %+v, %+v", again.Runner, again.Memo)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Payload struct {
			Runner map[string]any `json:"runner_stats"`
			Memo   map[string]any `json:"memo"`
		} `json:"payload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"stage_runs", "memo_hits", "profile_runs", "trace_runs", "trace_hits", "memo_evictions"} {
		if _, ok := raw.Payload.Runner[f]; !ok {
			t.Errorf("runner_stats lacks %q: %v", f, raw.Payload.Runner)
		}
	}
	for _, f := range []string{"entries", "bytes", "budget_bytes"} {
		if _, ok := raw.Payload.Memo[f]; !ok {
			t.Errorf("memo lacks %q: %v", f, raw.Payload.Memo)
		}
	}
}

// postBatch submits a batch and returns the raw NDJSON body.
func postBatch(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestBatchStreamsResultsInOrder submits a mixed batch — a base
// overlay, an explicit spec, and an invalid spec — and checks the
// stream: one envelope per scenario, in submission order, failures
// embedded without failing the batch.
func TestBatchStreamsResultsInOrder(t *testing.T) {
	srv := testServer(t)
	status, body := postBatch(t, srv.URL, `{"scenarios":[
		{"base":"app1-curves"},
		{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"},
		{"workload":"no-such-workload"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: %d\n%s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 results + stream.end, got %d lines:\n%s", len(lines), body)
	}
	var results []scenario.Result
	for _, line := range lines[:3] {
		var env struct {
			SchemaVersion int             `json:"schema_version"`
			Kind          string          `json:"kind"`
			Payload       scenario.Result `json:"payload"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if env.Kind != scenario.ResultKind || env.SchemaVersion != report.SchemaVersion {
			t.Errorf("bad envelope header: kind %q version %d", env.Kind, env.SchemaVersion)
		}
		results = append(results, env.Payload)
	}
	requireStreamEnd(t, lines[3], 3, 3, "complete")
	if results[0].Scenario.Workload != "2jpeg+canny" || results[0].Error != "" || len(results[0].Curves) == 0 {
		t.Errorf("base-overlay result wrong: %+v", results[0].Scenario)
	}
	if results[1].Scenario.Workload != "jpeg1-only" || results[1].Error != "" {
		t.Errorf("explicit-spec result wrong: %+v", results[1].Scenario)
	}
	if results[2].Error == "" || !strings.Contains(results[2].Error, "unknown workload") {
		t.Errorf("invalid spec must stream its error, got %q", results[2].Error)
	}
}

// TestBatchSingleSpecObject checks a bare spec object is a valid batch
// of one, like the CLI's -scenario files.
func TestBatchSingleSpecObject(t *testing.T) {
	srv := testServer(t)
	status, body := postBatch(t, srv.URL, `{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"}`)
	if status != http.StatusOK {
		t.Fatalf("single-spec batch: %d\n%s", status, body)
	}
	if n := strings.Count(body, `"kind":"scenario.result"`); n != 1 {
		t.Errorf("want 1 result envelope, got %d:\n%s", n, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	requireStreamEnd(t, lines[len(lines)-1], 1, 1, "complete")
}

// TestBatchRejections covers the atomic-rejection paths.
func TestBatchRejections(t *testing.T) {
	srv := testServer(t)
	for name, c := range map[string]struct {
		body string
		want int
	}{
		"malformed":    {`{"scenarios":[{]}`, http.StatusBadRequest},
		"empty":        {`{"scenarios":[]}`, http.StatusBadRequest},
		"unknown base": {`{"scenarios":[{"base":"nope"}]}`, http.StatusBadRequest},
	} {
		if status, body := postBatch(t, srv.URL, c.body); status != c.want {
			t.Errorf("%s: want %d, got %d (%s)", name, c.want, status, body)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: want 405, got %d", resp.StatusCode)
	}
}

// TestConcurrentSubmissionsDeterministic hammers one server with
// concurrent identical batches: every response must be byte-identical
// (the shared runner memoizes, and results are deterministic at any
// concurrency).
func TestConcurrentSubmissionsDeterministic(t *testing.T) {
	srv := testServer(t)
	const body = `{"scenarios":[{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"},{"base":"app1-curves"}]}`
	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw a different stream than client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if !strings.Contains(bodies[0], `"kind":"scenario.result"`) {
		t.Errorf("unexpected stream: %s", bodies[0])
	}
}
