package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// TestServerContainsInjectedPanics is the fault-injection harness's
// headline scenario: a seeded plan panics the first three profile-stage
// executions while nine distinct scenarios arrive over two concurrent
// batch submissions and one sweep. Exactly three per-scenario error
// envelopes come back (whatever the scheduling), every stream still
// terminates complete, the server never crashes, and — because a
// panicked stage is evicted, not memoized — resubmitting everything
// after the plan is lifted succeeds across the board.
func TestServerContainsInjectedPanics(t *testing.T) {
	cfg := testConfig()
	rn := scenario.NewRunner(2)
	srv := httptest.NewServer(New(cfg, rn))
	t.Cleanup(srv.Close)

	// Nine distinct specs: disjoint seed ranges mean no memo sharing, so
	// the profile stage executes once per scenario — nine hits on the
	// "stage.profile" site, of which the first three (in arrival order)
	// panic.
	batchA := `{"scenarios":[
		{"workload":"jpeg1-only","scale":"small","runs":1,"seed":200,"partition":"profile"},
		{"workload":"jpeg1-only","scale":"small","runs":1,"seed":201,"partition":"profile"},
		{"workload":"jpeg1-only","scale":"small","runs":1,"seed":202,"partition":"profile"}
	]}`
	batchB := strings.ReplaceAll(batchA, "20", "21")
	sweepSpec := `{
		"base": {"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"},
		"axes": [{"field":"seed","range":{"from":220,"count":3}}]
	}`

	submitAll := func() (bodies []string) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		post := func(path, body string) {
			defer wg.Done()
			status, b := postBatchTo(t, srv.URL+path, body)
			if status != http.StatusOK {
				t.Errorf("%s: %d\n%s", path, status, b)
			}
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
		}
		wg.Add(3)
		go post("/v1/batch", batchA)
		go post("/v1/batch", batchB)
		go post("/v1/sweep", sweepSpec)
		wg.Wait()
		return bodies
	}

	plan := faults.New(1).PanicAt(faults.SiteStage+"profile", 0, 1, 2)
	restore := faults.Activate(plan)
	bodies := submitAll()
	restore()

	injected := 0
	for _, b := range bodies {
		for _, line := range strings.Split(strings.TrimSpace(b), "\n") {
			if strings.Contains(line, `"kind":"sweep.result"`) {
				continue // the aggregate repeats the points' errors
			}
			injected += strings.Count(line, "faults: injected panic")
			if strings.Contains(line, `"kind":"stream.end"`) && !strings.Contains(line, `"reason":"complete"`) {
				t.Errorf("a contained panic must not truncate its stream:\n%s", line)
			}
		}
	}
	if injected != 3 {
		t.Fatalf("want exactly 3 per-scenario error envelopes from 3 injected panics, got %d:\n%s",
			injected, strings.Join(bodies, "\n---\n"))
	}
	if got := plan.Fired(faults.SiteStage+"profile", faults.Panic); got != 3 {
		t.Fatalf("plan fired %d panics, want 3", got)
	}
	st := rn.Stats()
	if st.StagePanics != 3 {
		t.Errorf("runner must count the contained panics: %+v", st)
	}
	if st.StageErrors != 3 {
		t.Errorf("every panicked stage must be evicted: %+v", st)
	}

	// Round two, plan lifted: the three evicted stages re-run cleanly,
	// the six healthy ones come from the memo. No errors anywhere.
	for _, b := range submitAll() {
		if strings.Contains(b, "injected panic") || strings.Contains(b, `"kind":"error"`) ||
			!strings.Contains(b, `"reason":"complete"`) {
			t.Errorf("resubmission after the plan is lifted must be clean:\n%s", b)
		}
	}
	if st := rn.Stats(); st.StagePanics != 3 {
		t.Errorf("no new panics may occur on retry: %+v", st)
	}
}

// postBatchTo posts to a full endpoint URL and drains the body.
func postBatchTo(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeDrainsInflightStream is the SIGTERM-equivalent lifecycle
// test: with a request mid-stream, canceling the serve context (what
// the signal handler does) must let that stream run to a complete
// stream.end before Serve returns cleanly.
func TestServeDrainsInflightStream(t *testing.T) {
	name, entered, release := registerGatedWorkload(t, "gated-drain")
	cfg := testConfig()
	s := NewWithOptions(cfg, scenario.NewRunner(1), Options{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, 30*time.Second) }()

	body := profileBatch(name)
	streamed := make(chan string, 1)
	go func() {
		_, b := postBatchTo(t, "http://"+l.Addr().String()+"/v1/batch", body)
		streamed <- b
	}()
	waitSignal(t, entered, "in-flight request to start simulating")

	cancel() // SIGTERM
	// Draining now: the in-flight stream must still complete once the
	// simulation is released.
	close(release)

	select {
	case b := <-streamed:
		lines := strings.Split(strings.TrimSpace(b), "\n")
		if len(lines) != 2 || !strings.Contains(lines[0], `"kind":"scenario.result"`) {
			t.Fatalf("drained stream must carry its result:\n%s", b)
		}
		requireStreamEnd(t, lines[1], 1, 1, "complete")
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight stream did not complete under drain")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve must return nil after a clean drain, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}
