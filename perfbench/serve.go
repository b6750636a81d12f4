package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// warmRequestsPerPass is how many warm requests each serve-batch pass
// sends.
const warmRequestsPerPass = 400

// closedLoop processes items 0..n-1 with the given number of
// closed-loop clients: each client takes the next item only once its
// previous one has completed.
func closedLoop(n, clients int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// server is an in-process serve.Server with default admission on a
// loopback listener, and an HTTP client holding at most two
// connections to it.
type server struct {
	rn     *scenario.Runner
	srv    *serve.Server
	client *http.Client
	url    string
	stop   context.CancelFunc
	done   chan error
}

// startServer serves rn; the caller keeps owning rn.
func startServer(rn *scenario.Runner) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		rn:  rn,
		srv: serve.New(experiments.Small(), rn),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		url:  "http://" + ln.Addr().String() + "/v1/batch",
		done: make(chan error, 1),
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	go func() { s.done <- s.srv.Serve(ctx, ln, 5*time.Second) }()
	return s, nil
}

// close drains the server, waits for it to return, and releases the
// client's connections.
func (s *server) close() error {
	s.stop()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// startServeEnv starts a server over a fresh memory-only runner.
func startServeEnv() (*server, error) {
	rn := scenario.NewRunner(workers)
	s, err := startServer(rn)
	if err != nil {
		rn.Close()
	}
	return s, err
}

// closeServeEnv closes a server started by startServeEnv and its runner.
func closeServeEnv(s *server) error {
	err := s.close()
	s.rn.Close()
	return err
}

// batchBody is the /v1/batch body of one scenario.
func batchBody(spec scenario.Scenario) []byte {
	body, err := json.Marshal(map[string][]scenario.Scenario{"scenarios": {spec}})
	if err != nil {
		// A scenario is a plain struct; marshaling cannot fail.
		panic(err)
	}
	return body
}

// reply is one checked /v1/batch response.
type reply struct {
	out    outcome
	status int
	// complete is false when the stream did not end in a complete
	// stream.end envelope.
	complete bool
}

// decodeStream reads a single-scenario NDJSON result stream and checks
// it: one result without an error, then a stream.end that is complete
// and delivered everything expected.
func decodeStream(r io.Reader) (reply, error) {
	var (
		rep    reply
		end    *serve.StreamEnd
		result *scenario.Result
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var env struct {
			Kind    string          `json:"kind"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			return rep, fmt.Errorf("decoding envelope: %w", err)
		}
		switch env.Kind {
		case scenario.ResultKind:
			result = &scenario.Result{}
			if err := json.Unmarshal(env.Payload, result); err != nil {
				return rep, fmt.Errorf("decoding result: %w", err)
			}
		case serve.StreamEndKind:
			end = &serve.StreamEnd{}
			if err := json.Unmarshal(env.Payload, end); err != nil {
				return rep, fmt.Errorf("decoding stream.end: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if end == nil || end.Reason != "complete" || end.Delivered != end.Expected || end.Expected != 1 {
		return rep, fmt.Errorf("stream ended with %+v", end)
	}
	rep.complete = true
	var err error
	rep.out, err = outcomeOf(result)
	return rep, err
}

// post sends one batch body over the loopback connection and reads the
// whole stream.
func (s *server) post(body []byte) (reply, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return reply{status: resp.StatusCode}, fmt.Errorf("status %d", resp.StatusCode)
	}
	rep, err := decodeStream(resp.Body)
	rep.status = resp.StatusCode
	return rep, err
}

// serveCounts tallies responses for serve.requests, serve.shed and
// serve.incomplete.
type serveCounts struct {
	mu                         sync.Mutex
	requests, shed, incomplete int
}

func (c *serveCounts) add(rep reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if rep.status == http.StatusTooManyRequests {
		c.shed++
	}
	if !rep.complete {
		c.incomplete++
	}
}

// phases is what the cold and warm phases of one pass measured.
type phases struct {
	coldWall             time.Duration
	cold, warm           []time.Duration // latencies of the requests that succeeded
	outs                 []outcome       // each spec's cold result
	coldStats, warmStats scenario.Stats
}

// servePhases sends the cold phase (every spec once) and then the warm
// phase (seeded draws) through two closed-loop clients. Every warm
// result must equal the cold result of its spec and the warm phase must
// run no stage.
func servePhases(b *bench, s *server, pool servePool, counts *serveCounts) phases {
	outs := make([]outcome, len(pool.specs))
	done := make([]bool, len(pool.specs))
	var mu sync.Mutex
	phase := func(order []int, check bool) []time.Duration {
		lats := make([]time.Duration, len(order))
		ok := make([]bool, len(order))
		closedLoop(len(order), workers, func(k int) {
			idx := order[k]
			t := time.Now()
			rep, err := s.post(pool.bodies[idx])
			lats[k] = time.Since(t)
			counts.add(rep)
			mu.Lock()
			if err == nil && check && (!done[idx] || digestOf(rep.out) != digestOf(outs[idx])) {
				err = fmt.Errorf("warm result of spec %d differs from its cold result", idx)
			}
			if err == nil && !check {
				outs[idx], done[idx] = rep.out, true
			}
			mu.Unlock()
			ok[k] = b.ck.op("request", err)
		})
		var kept []time.Duration
		for k, d := range lats {
			if ok[k] {
				kept = append(kept, d)
			}
		}
		return kept
	}
	var ph phases
	before := s.rn.Stats()
	t := time.Now()
	ph.cold = phase(pool.cold, false)
	ph.coldWall = time.Since(t)
	mid := s.rn.Stats()
	ph.warm = phase(pool.warm, true)
	ph.coldStats, ph.warmStats = mid.Delta(before), s.rn.Stats().Delta(mid)
	ph.outs = outs
	var err error
	if ph.warmStats.StageRuns != 0 {
		err = fmt.Errorf("the warm phase ran %d stages", ph.warmStats.StageRuns)
	}
	b.ck.op("warm phase runs no stage", err)
	return ph
}

// servePass is one untraced serve-batch pass on a fresh server.
func servePass(b *bench) (*passResult, error) {
	var pool servePool
	s, setups, err := timedSetup(func() (*server, error) {
		pool = serveInputs(b.seed, warmRequestsPerPass)
		return startServeEnv()
	}, func(s *server) { closeServeEnv(s) })
	if err != nil {
		return nil, err
	}
	p := &passResult{setup: setups, named: newSamples()}
	settle()
	m0 := memSnapshot()
	ph := servePhases(b, s, pool, &serveCounts{})
	m1 := memSnapshot()
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.live = liveHeap()
	if err := closeServeEnv(s); err != nil {
		return nil, err
	}
	p.cold, p.warm = ph.coldWall, ph.warm
	for _, d := range ph.cold {
		p.named.add("cold_request_ms", "ms", ms(d))
	}
	p.digest = digestOf(ph.outs)
	return p, nil
}

// serveTraced is the traced serve-batch pass: the cold and warm phases
// over HTTP (the overhead baseline), the cold phase again through the
// layers directly with two closed-loop workers, then the probes.
func serveTraced(b *bench) (*tracedResult, error) {
	pool := serveInputs(b.seed, warmRequestsPerPass)
	s, err := startServeEnv()
	if err != nil {
		return nil, err
	}
	defer closeServeEnv(s)
	extra := map[string]float64{}
	named := newSamples()

	counts := &serveCounts{}
	settle()
	m0 := memSnapshot()
	ph := servePhases(b, s, pool, counts)
	m1 := memSnapshot()
	addGC(extra, m0.NumGC, m1.NumGC, m0.PauseTotalNs, m1.PauseTotalNs)
	addStats(extra, "cold", ph.coldStats)
	addStats(extra, "warm", ph.warmStats)
	coldWall, outs := ph.coldWall, ph.outs

	tr := newTracer()
	p := newPipeline(tr, workers)
	t := time.Now()
	closedLoop(len(pool.cold), workers, func(k int) {
		idx := pool.cold[k]
		req := fmt.Sprintf("request-%d", k)
		var out outcome
		err := tr.root("request", req, func(root int) error {
			var err error
			out, err = p.run(root, req, pool.specs[idx])
			return err
		})
		if err == nil && digestOf(out) != digestOf(outs[idx]) {
			err = fmt.Errorf("traced spec %d differs from the server's result", idx)
		}
		b.ck.op("traced request", err)
	})
	tracedWall := time.Since(t)
	extra["trace.overhead_ms"] = ms(tracedWall - coldWall)
	named.add("untraced_cold_phase_s", "s", sec(coldWall))
	named.add("traced_cold_phase_s", "s", sec(tracedWall))

	// The probes' sweep re-serves the measured specs: profile-only specs
	// have no run for the sweep's metrics.
	var measured []scenario.Scenario
	for _, spec := range pool.specs {
		if spec.Partition != scenario.PartitionProfile {
			measured = append(measured, spec)
		}
	}
	b.ck.op("probes", p.probe(probeInputs{
		rn: s.rn, specs: pool.specs, want: outs, hitReps: 3, serveReps: 8,
		sweep: specSweep("serve-pool", measured), storeDir: b.tmp,
	}, extra))
	addModel(extra, outs)
	extra["serve.requests"] += float64(counts.requests)
	extra["serve.shed"] += float64(counts.shed)
	extra["serve.incomplete"] += float64(counts.incomplete)
	spans := tr.snapshot()
	return &tracedResult{layer: layerValues(spans, extra), spans: spans, named: named}, nil
}
