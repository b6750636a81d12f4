package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// testSeq numbers the workloads the tests register, so that every
// registration has a process-unique name and the tests repeat under
// -count=N.
var testSeq atomic.Int64

// registerGatedWorkload registers a jpeg1-only wrapper whose every
// factory call signals entered and then blocks until release is closed
// — the handle admission and drain tests use to hold a request in
// flight deterministically. Its name is prefix plus a process-unique
// number.
func registerGatedWorkload(t *testing.T, prefix string) (name string, entered chan struct{}, release chan struct{}) {
	t.Helper()
	name = fmt.Sprintf("%s-%d", prefix, testSeq.Add(1))
	base, ok := workloads.Lookup("jpeg1-only")
	if !ok {
		t.Fatal("jpeg1-only not registered")
	}
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	err := workloads.Register(name, func(bc workloads.BuildConfig) core.Workload {
		w := base(bc)
		inner := w.Factory
		w.Factory = func() (*core.App, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return inner()
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	return name, entered, release
}

// profileBatch is a /v1/batch body of one small runs: 1 profile
// scenario of the named workload.
func profileBatch(workload string) string {
	return `{"scenarios":[{"workload":"` + workload + `","scale":"small","runs":1,"partition":"profile"}]}`
}

func waitSignal(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// getHealth fetches and decodes /healthz.
func getHealth(t *testing.T, url string) (int, Health) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Payload Health `json:"payload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env.Payload
}

// TestOverCapacitySheds429 checks the load-shedding contract: with one
// in-flight slot and no wait queue, a second submission to any
// simulation endpoint is refused immediately with 429 and a Retry-After
// hint — it is never queued — while /healthz reports the load and the
// shed count.
func TestOverCapacitySheds429(t *testing.T) {
	name, entered, release := registerGatedWorkload(t, "gated-shed")
	cfg := testConfig()
	// Two workers: the gated batch holds one, so a sweep or explore
	// request admitted by mistake runs on the other and fails the test
	// instead of hanging it.
	s := NewWithOptions(cfg, scenario.NewRunner(2), Options{MaxInflight: 1, Queue: -1})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	body := profileBatch(name)
	first := make(chan string, 1)
	go func() {
		_, b := postBatch(t, srv.URL, body)
		first <- b
	}()
	waitSignal(t, entered, "gated workload to start")

	status, shedBody := postBatch(t, srv.URL, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: want 429, got %d\n%s", status, shedBody)
	}
	sweep := `{"base":{"workload":"jpeg1-only","scale":"small","runs":1},"axes":[{"field":"seed","range":{"from":0,"count":2}}]}`
	for _, req := range []struct{ path, body string }{
		{"/v1/batch", body},
		{"/v1/sweep", sweep},
		{"/v1/explore", `{"sweep":` + sweep + `}`},
	} {
		resp, err := http.Post(srv.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: shed response must be 429 with Retry-After, got %d %q", req.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}

	if code, h := getHealth(t, srv.URL); code != http.StatusOK ||
		h.Inflight != 1 || h.MaxInflight != 1 || h.Shed < 4 || !h.Ready {
		t.Errorf("healthz under load: code %d, %+v", code, h)
	}

	close(release)
	b := <-first
	lines := strings.Split(strings.TrimSpace(b), "\n")
	requireStreamEnd(t, lines[len(lines)-1], 1, 1, "complete")
}

// TestQueueAdmitsThenSheds checks the bounded wait queue: a second
// submission waits for the slot (and eventually completes), a third —
// over both the slot and the queue — sheds with 429.
func TestQueueAdmitsThenSheds(t *testing.T) {
	name, entered, release := registerGatedWorkload(t, "gated-queue")
	cfg := testConfig()
	s := NewWithOptions(cfg, scenario.NewRunner(1), Options{MaxInflight: 1, Queue: 1})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	body := profileBatch(name)
	done := make(chan string, 2)
	go func() { _, b := postBatch(t, srv.URL, body); done <- b }()
	waitSignal(t, entered, "first request to start")
	go func() { _, b := postBatch(t, srv.URL, body); done <- b }()

	// Wait until the second submission is actually parked in the queue.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, h := getHealth(t, srv.URL); h.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second submission never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if status, b := postBatch(t, srv.URL, body); status != http.StatusTooManyRequests {
		t.Fatalf("third submission must shed past the full queue: want 429, got %d\n%s", status, b)
	}

	close(release)
	for i := 0; i < 2; i++ {
		select {
		case b := <-done:
			lines := strings.Split(strings.TrimSpace(b), "\n")
			requireStreamEnd(t, lines[len(lines)-1], 1, 1, "complete")
		case <-time.After(30 * time.Second):
			t.Fatal("queued submission never completed")
		}
	}
}

// TestOversizedBodyIs413 checks every simulation endpoint rejects a body
// over the 16 MiB cap with 413, not a generic 400.
func TestOversizedBodyIs413(t *testing.T) {
	srv := testServer(t)
	huge := `{"pad":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	for _, path := range []string{"/v1/batch", "/v1/sweep", "/v1/explore"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body: want 413, got %d", path, resp.StatusCode)
		}
	}
}

// TestRequestTimeoutCancelsSimulation checks the per-request deadline
// reaches the simulation layer: an already-expired deadline yields an
// honest canceled stream.end, never a hang or a crash.
func TestRequestTimeoutCancelsSimulation(t *testing.T) {
	cfg := testConfig()
	s := NewWithOptions(cfg, scenario.NewRunner(1), Options{RequestTimeout: time.Nanosecond})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	status, body := postBatch(t, srv.URL, `{"scenarios":[
		{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"},
		{"workload":"jpeg1-only","scale":"small","runs":1,"seed":9,"partition":"profile"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("deadline-bounded batch: %d\n%s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	requireStreamEnd(t, lines[len(lines)-1], 0, 2, "canceled")
}

// TestDrainRefusesNewWork checks StartDrain flips the server not-ready:
// /healthz answers 503/draining and new submissions are refused with
// 503 + Retry-After while the process winds down.
func TestDrainRefusesNewWork(t *testing.T) {
	cfg := testConfig()
	s := New(cfg, scenario.NewRunner(1))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	s.StartDrain()
	code, h := getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable || h.Status != "draining" || h.Ready {
		t.Errorf("draining healthz: code %d, %+v", code, h)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"scenarios":[{"workload":"jpeg1-only","scale":"small","runs":1,"partition":"profile"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining submission: want 503 with Retry-After, got %d %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
