package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// Soak parameters: three clients issue 40 requests each over 60
// distinct platforms (the L2 hit latency varies, so every platform has
// its own profile and run stages), through a server admitting two
// requests at a time with a queue of two. The 25 ms deadline per
// request is shorter than a cold request's stages, so deadlines expire,
// and far longer than a warm one.
const (
	soakSeed      = 20261017
	soakClients   = 3
	soakRequests  = 40
	soakPlatforms = 60
	soakDeadline  = 25 * time.Millisecond
)

// soakHeapSlack is the live heap the soak may leave beyond the memo's
// share and the heap the process held before the server started: the
// runner and server themselves, and what the runtime, net/http and
// encoding/json build lazily and keep (per-P caches, the header
// canonicalization table, a type encoder per envelope kind). On
// linux/amd64 with Go 1.24 the soak leaves about 0.6 MiB beyond what
// it held before, memo included, under -race too; 4 MiB keeps the bound
// clear of that while a leak per request — a stream's buffers, a
// batch's results or a goroutine's stack, each at least a few KiB,
// over 120 requests — shows.
const soakHeapSlack = 4 << 20

// liveHeap returns the heap in use after two collections: the first
// runs the finalizers and weak-pointer cleanups of what was garbage, the
// second collects what those released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakSpec is a cheap scenario on platform p.
func soakSpec(p int, partition string) map[string]any {
	return map[string]any{
		"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": partition,
		"platform": map[string]any{"l2_hit_latency": 10 + p},
	}
}

// soakBodies builds the request bodies a client draws from: batches
// over the platforms, a few sweeps (repeated, so plans and results hit)
// and explorations.
type soakBodies struct {
	next   atomic.Int64 // the platform the next batch spec runs on
	sweeps []string
}

func newSoakBodies() *soakBodies {
	b := &soakBodies{}
	for i := 0; i < 5; i++ {
		b.sweeps = append(b.sweeps, fmt.Sprintf(`{
			"name": "soak-%d",
			"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "shared"},
			"axes": [{"field": "platform.l2_hit_latency", "values": [%d, %d, %d]}]
		}`, i, 10+i, 10+i+soakPlatforms/2, 10+soakPlatforms-1-i))
	}
	return b
}

// body draws one request: its path, body and the platforms it names.
func (b *soakBodies) body(rng *rand.Rand) (path, body string, platforms []int) {
	switch r := rng.Intn(10); {
	case r < 5:
		var specs []map[string]any
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p := int(b.next.Add(1)-1) % soakPlatforms
			platforms = append(platforms, p)
			specs = append(specs, soakSpec(p, []string{"profile", "shared"}[rng.Intn(2)]))
		}
		raw, _ := json.Marshal(map[string]any{"scenarios": specs})
		return "/v1/batch", string(raw), platforms
	case r < 8:
		i := rng.Intn(len(b.sweeps))
		return "/v1/sweep", b.sweeps[i], []int{i, i + soakPlatforms/2, soakPlatforms - 1 - i}
	default:
		return "/v1/explore", fmt.Sprintf(`{
			"sweep": {
				"base": {"workload": "jpeg1-only", "scale": "small", "runs": 1, "partition": "shared"},
				"axes": [{"field": "platform.l2_hit_latency", "values": [10, 20, 30, 40]}],
				"pareto": [{"x": "misses", "y": "makespan"}]
			},
			"strategy": {"budget": 3, "seed": %d}
		}`, rng.Intn(4)), []int{0, 10, 20, 30}
	}
}

// TestSoakServeMixedTraffic drives one Server on a loopback listener
// with a seeded mix of batch, sweep and explore requests over 60
// platforms, with client cancellations, per-request deadlines that
// expire, random TrimMemo calls and injected stage panics, then drains
// it. Afterwards the goroutines are back to their count before the
// server, the live heap is within 2.5× the memo's bytes (the bound the
// memo's size estimates are held to) plus what the process held before
// and soakHeapSlack, no /healthz sample showed the memo over its
// budget, and every stream read to its end ended with stream.end.
func TestSoakServeMixedTraffic(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	baseHeap := liveHeap()

	rn := scenario.NewRunner(2)
	srv := NewWithOptions(testConfig(), rn, Options{MaxInflight: 2, Queue: 2, RequestTimeout: soakDeadline})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	serveCtx, drain := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, l, 30*time.Second) }()
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}

	plan := faults.New(soakSeed)
	plan.PanicAt(faults.SiteStage+"profile", 1, 4, 9)
	plan.PanicAt(faults.SiteStage+"run", 2, 7, 15)
	restore := faults.Activate(plan)
	defer restore()

	// Sample /healthz throughout.
	var samples, overBudget atomic.Int64
	sampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-sampling:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := client.Get(url + "/healthz")
			if err != nil {
				continue
			}
			var env struct {
				Payload Health `json:"payload"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil {
				continue
			}
			samples.Add(1)
			if env.Payload.Memo.Bytes > env.Payload.Memo.Budget {
				overBudget.Add(1)
			}
		}
	}()

	bodies := newSoakBodies()
	var (
		mu        sync.Mutex
		platforms = map[int]bool{}
		kinds     = map[string]int{}
		outcomes  = map[string]int{}
		wg        sync.WaitGroup
	)
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(soakSeed + int64(c)))
			for i := 0; i < soakRequests; i++ {
				if rng.Intn(10) == 0 {
					rn.TrimMemo(rng.Intn(20))
				}
				path, body, ps := bodies.body(rng)
				ctx, cancel := context.WithCancel(context.Background())
				canceled := rng.Intn(7) == 0
				if canceled {
					time.AfterFunc(time.Duration(rng.Intn(30))*time.Millisecond, cancel)
				}
				end, err := soakRequest(ctx, client, url+path, body)
				cancel()
				mu.Lock()
				for _, p := range ps {
					platforms[p] = true
				}
				kinds[path]++
				switch {
				case err != nil:
					outcomes["client canceled"]++
				case end == nil:
					outcomes["shed"]++
				default:
					outcomes[end.Reason]++
				}
				mu.Unlock()
				switch {
				case err != nil && !canceled:
					t.Errorf("client %d request %d (%s): %v", c, i, path, err)
				case err == nil && end != nil && end.Reason == "":
					t.Errorf("client %d request %d (%s): the stream did not end with %s", c, i, path, StreamEndKind)
				}
			}
		}(c)
	}
	wg.Wait()
	close(sampling)
	<-sampled
	drain()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	restore()
	transport.CloseIdleConnections()

	if len(platforms) < 50 || kinds["/v1/batch"] == 0 || kinds["/v1/sweep"] == 0 || kinds["/v1/explore"] == 0 {
		t.Errorf("the soak covered %d platforms and requests %v", len(platforms), kinds)
	}
	if plan.Fired(faults.SiteStage+"profile", faults.Panic)+plan.Fired(faults.SiteStage+"run", faults.Panic) == 0 {
		t.Error("no injected stage panic fired")
	}
	if rn.Stats().MemoHits == 0 || outcomes["complete"] == 0 || outcomes["canceled"] == 0 {
		t.Errorf("want completed streams, expired deadlines and memo hits; got %v, %+v", outcomes, rn.Stats())
	}
	if samples.Load() == 0 || overBudget.Load() != 0 {
		t.Errorf("%d of %d /healthz samples showed the memo over its budget", overBudget.Load(), samples.Load())
	}

	deadline := time.Now().Add(20 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the drain, %d before the server:\n%s", n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
	memo := rn.MemoUsage()
	live := liveHeap()
	if bound := baseHeap + uint64(2.5*float64(memo.Bytes)) + soakHeapSlack; live > bound {
		t.Errorf("live heap %d B after the drain, over %d B (%d B before the server, memo %d B in %d entries)",
			live, bound, baseHeap, memo.Bytes, memo.Entries)
	}
	t.Logf("soak: %d platforms, requests %v, outcomes %v, %d healthz samples, stats %+v, memo %+v, heap base %d live %d, goroutines %d/%d", len(platforms), kinds, outcomes, samples.Load(), rn.Stats(), memo, baseHeap, live, runtime.NumGoroutine(), baseGoroutines)
	runtime.KeepAlive(rn)
}

// soakRequest posts one request and reads its NDJSON stream to the end.
// It returns the stream's terminal StreamEnd — zero when the last
// envelope is of another kind — or nil for a 429 or 503 answer, which
// carries no stream. A canceled ctx or a dropped connection returns the
// read error.
func soakRequest(ctx context.Context, client *http.Client, url, body string) (*StreamEnd, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, nil
	default:
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var (
		end  StreamEnd
		line []byte
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line = append(line[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var last struct {
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(line, &last); err != nil {
		return nil, fmt.Errorf("last line %q: %v", line, err)
	}
	if last.Kind == StreamEndKind {
		if err := json.Unmarshal(last.Payload, &end); err != nil {
			return nil, err
		}
	}
	return &end, nil
}
