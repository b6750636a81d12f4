// Package serve exposes the scenario API over HTTP/JSON — the
// `compmem serve` service mode and the first step toward the serving
// north star. Clients submit scenario batches and receive structured,
// versioned result documents as an NDJSON stream, in submission order,
// each written as soon as it (and its predecessors) complete.
//
// Endpoints:
//
//	GET  /healthz       liveness, readiness and load (inflight, queue, memo occupancy, panics)
//	GET  /v1/workloads  registered workload names
//	GET  /v1/scenarios  built-in scenario specs (usable as "base")
//	POST /v1/batch      {"scenarios":[spec,...]} → NDJSON result stream
//	POST /v1/sweep      sweep spec → NDJSON per-point stream + aggregate
//	POST /v1/explore    exploration spec → NDJSON visited-point stream + front aggregate
//
// One Runner is shared across requests, so its content-addressed memo
// acts as a result cache: resubmitting a spec (or submitting a spec
// sharing pipeline stages with an earlier one) is served without
// re-simulation, and results are deterministic under any concurrency.
// Both streaming endpoints thread the request context into execution: a
// dropped connection cancels queued scenarios/points instead of burning
// the worker pool (work already in flight finishes into the shared
// memo, so it is never wasted).
//
// The server is fault-contained and load-shedding: a panicking pipeline
// stage becomes that scenario's structured "error" result (see
// scenario.StagePanicError) while every other request keeps streaming;
// the simulation endpoints pass admission control (a bounded in-flight
// semaphore plus a small wait queue — over-capacity submissions shed
// with 429 and Retry-After, never unbounded queueing) and can be
// deadline-bounded per request; every NDJSON stream is terminated by a
// "stream.end" envelope so clients can distinguish completion from
// truncation.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Admission-control and body-size defaults.
const (
	// DefaultMaxBatch bounds the scenarios (or sweep points) of one
	// submission.
	DefaultMaxBatch = 256
	// DefaultMaxInflight bounds the simulation requests admitted
	// concurrently.
	DefaultMaxInflight = 8
	// DefaultQueue bounds the submissions waiting for an in-flight slot
	// before over-capacity shedding begins.
	DefaultQueue = 16
	// maxBodyBytes caps a request body; larger submissions get 413.
	maxBodyBytes = 16 << 20
	// retryAfterSeconds is the Retry-After hint on shed (429/503)
	// responses.
	retryAfterSeconds = 1
)

// Logf is the injectable logging hook of a Server: dropped-client write
// failures, shed decisions and drain progress report through it. nil
// discards.
type Logf func(format string, args ...interface{})

// Options tunes a Server's admission control, deadlines and logging.
// The zero value means all defaults.
type Options struct {
	// MaxBatch bounds one submission's scenarios or sweep points;
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxInflight bounds the simulation requests (batch, sweep and
	// explore) admitted concurrently; 0 means DefaultMaxInflight.
	MaxInflight int
	// Queue bounds the submissions waiting for an in-flight slot beyond
	// MaxInflight; anything more sheds with 429. 0 means DefaultQueue;
	// negative disables the wait queue entirely (immediate shedding).
	Queue int
	// RequestTimeout deadline-bounds each admitted request's simulation
	// work through the scenario layer's context cancellation; 0 means
	// no deadline.
	RequestTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf Logf
}

// Server handles the scenario-service endpoints.
type Server struct {
	cfg  experiments.Config
	rn   *scenario.Runner
	mux  *http.ServeMux
	opts Options

	slots chan struct{} // in-flight tokens (admission semaphore)
	queue chan struct{} // wait-queue tokens; nil when queueing is disabled

	inflight int64  // gauge: admitted simulation requests
	queued   int64  // gauge: submissions waiting for a slot
	shed     uint64 // counter: submissions shed with 429

	draining  int32 // set once when the drain starts
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New builds a Server over a shared runner with default Options. cfg
// supplies the defaults built-in base scenarios are materialized with
// (scale, platform, profiling runs), exactly like the CLI flags do for
// commands.
func New(cfg experiments.Config, rn *scenario.Runner) *Server {
	return NewWithOptions(cfg, rn, Options{})
}

// NewWithOptions builds a Server with explicit admission-control,
// deadline and logging options.
func NewWithOptions(cfg experiments.Config, rn *scenario.Runner, opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.Queue == 0 {
		opts.Queue = DefaultQueue
	}
	s := &Server{
		cfg:     cfg,
		rn:      rn,
		mux:     http.NewServeMux(),
		opts:    opts,
		slots:   make(chan struct{}, opts.MaxInflight),
		drainCh: make(chan struct{}),
	}
	if opts.Queue > 0 {
		s.queue = make(chan struct{}, opts.Queue)
	}
	s.mux.HandleFunc("/healthz", s.health)
	s.mux.HandleFunc("/v1/workloads", s.workloads)
	s.mux.HandleFunc("/v1/scenarios", s.scenarios)
	s.mux.HandleFunc("/v1/batch", s.admitted(s.batch))
	s.mux.HandleFunc("/v1/sweep", s.admitted(s.sweep))
	s.mux.HandleFunc("/v1/explore", s.admitted(s.explore))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Health is the /healthz payload: liveness plus the readiness and load
// signals a fleet router health-routes on. Runner carries the shared
// memo counters, including stage_panics — contained panics are an
// operational signal even though they never crash the process.
type Health struct {
	Status      string `json:"status"` // "ok" or "draining"
	Ready       bool   `json:"ready"`
	Inflight    int64  `json:"inflight"`
	MaxInflight int    `json:"max_inflight"`
	Queued      int64  `json:"queued"`
	QueueLimit  int    `json:"queue_limit"`
	Shed        uint64 `json:"shed"`
	// StoreMode is the runner's persistence mode: "memory" (no durable
	// store), "disk", or "degraded" (a failing disk was disabled; the
	// runner keeps serving memory-only). Runner.store_errors counts the
	// failed store operations that led there.
	StoreMode string         `json:"store_mode"`
	Runner    scenario.Stats `json:"runner_stats"`
	// Memo is the shared memo's occupancy: resident entries — the stage
	// values, one result entry per successful scenario and one plan per
	// sweep — and their bytes against its byte budget.
	// Runner.memo_evictions counts what the budget pushed out.
	Memo scenario.MemoUsage `json:"memo"`
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:      "ok",
		Ready:       true,
		Inflight:    atomic.LoadInt64(&s.inflight),
		MaxInflight: s.opts.MaxInflight,
		Queued:      atomic.LoadInt64(&s.queued),
		QueueLimit:  max(s.opts.Queue, 0),
		Shed:        atomic.LoadUint64(&s.shed),
		StoreMode:   s.rn.StoreMode(),
		Runner:      s.rn.Stats(),
		Memo:        s.rn.MemoUsage(),
	}
	code := http.StatusOK
	if s.isDraining() {
		h.Status, h.Ready = "draining", false
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, report.NewEnvelope("health", h))
}

func (s *Server) workloads(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, report.NewEnvelope("workloads", workloads.Names()))
}

func (s *Server) scenarios(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, report.NewEnvelope("scenarios", experiments.BuiltinScenarios(s.cfg)))
}

// admit gates one simulation request through the bounded in-flight
// semaphore. Over capacity, the request takes a wait-queue token and
// blocks for a slot; with the queue full (or disabled) it is shed
// immediately with 429 and a Retry-After hint — submissions never queue
// unboundedly. Queued waiters are released by a client disconnect or a
// drain. The returned release function must be called when the request
// finishes.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.isDraining() {
		s.reject(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return nil, false
	}
	acquired := func() func() {
		atomic.AddInt64(&s.inflight, 1)
		return func() {
			atomic.AddInt64(&s.inflight, -1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return acquired(), true
	default:
	}
	if s.queue != nil {
		select {
		case s.queue <- struct{}{}:
			atomic.AddInt64(&s.queued, 1)
			defer func() {
				atomic.AddInt64(&s.queued, -1)
				<-s.queue
			}()
			select {
			case s.slots <- struct{}{}:
				return acquired(), true
			case <-r.Context().Done():
				return nil, false // client gave up while queued
			case <-s.drainCh:
				s.reject(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
				return nil, false
			}
		default:
		}
	}
	atomic.AddUint64(&s.shed, 1)
	s.reject(w, http.StatusTooManyRequests,
		fmt.Errorf("over capacity: %d requests in flight, wait queue full", atomic.LoadInt64(&s.inflight)))
	return nil, false
}

// admitted wraps a simulation handler with admission control and the
// per-request simulation deadline.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		if s.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// isDraining reports whether StartDrain has been called.
func (s *Server) isDraining() bool { return atomic.LoadInt32(&s.draining) == 1 }

// StartDrain flips the server into draining mode: /healthz reports
// not-ready with 503 (so a fleet router stops health-routing here), new
// simulation submissions are refused with 503 + Retry-After, and queued
// waiters are released with the same. Requests already admitted keep
// streaming — the drain owner (Serve) bounds how long. Idempotent.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		atomic.StoreInt32(&s.draining, 1)
		close(s.drainCh)
	})
}

// readBody reads a request body under the size cap, distinguishing an
// oversized submission (413) from an unreadable one (400).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s exceeds the %d-byte request body limit", what, mbe.Limit))
		} else {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading %s: %v", what, err))
		}
		return nil, false
	}
	return body, true
}

// StreamEndKind terminates every NDJSON stream: the final envelope of
// /v1/batch and /v1/sweep is always a StreamEnd, so clients can
// distinguish a completed stream from a truncated one.
const StreamEndKind = "stream.end"

// StreamEnd is the terminal envelope payload of the NDJSON endpoints.
// Delivered counts the per-scenario (or per-point) envelopes actually
// written; Expected is how many the submission called for. Reason is
// "complete" (everything delivered; on the sweep endpoint the aggregate
// envelope precedes this one only in this case), "canceled" (the
// request context expired — client disconnect, request deadline, or
// drain), "truncated" (the stream ended early without a cancellation),
// or "error" (a write to the client failed mid-stream).
type StreamEnd struct {
	Delivered int    `json:"delivered"`
	Expected  int    `json:"expected"`
	Reason    string `json:"reason"`
	Error     string `json:"error,omitempty"`
}

// ndjson is one NDJSON response stream: startStream commits its
// header, emit writes each per-item envelope, aggregate the summary of a
// stream that delivered everything, and end the terminal stream.end.
// Every envelope is flushed as soon as it is written. The first failed
// write is kept: it stops every later emit and aggregate, and end
// reports it.
type ndjson struct {
	s         *Server
	ctx       context.Context
	path      string // the endpoint, for the log
	enc       *json.Encoder
	flusher   http.Flusher
	delivered int   // per-item envelopes written
	err       error // the first failed write
}

// startStream commits a 200 NDJSON response for the request.
func (s *Server) startStream(w http.ResponseWriter, r *http.Request) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjson{s: s, ctx: r.Context(), path: r.URL.Path, enc: json.NewEncoder(w), flusher: flusher}
}

// write encodes and flushes one envelope; a failure is logged, not
// fatal (the client may be gone).
func (st *ndjson) write(env report.Envelope) error {
	if err := st.enc.Encode(env); err != nil {
		st.s.logf("serve: %s: writing %s after %d delivered: %v", st.path, env.Kind, st.delivered, err)
		return err
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// emit writes one per-item envelope unless an earlier write failed, and
// reports whether it was delivered.
func (st *ndjson) emit(env report.Envelope) bool {
	if st.err == nil {
		st.err = st.write(env)
	}
	if st.err != nil {
		return false
	}
	st.delivered++
	return true
}

// aggregate writes the stream's summary envelope, unless an earlier
// write failed or the request context expired.
func (st *ndjson) aggregate(env report.Envelope) {
	if st.err == nil && st.ctx.Err() == nil {
		st.err = st.write(env)
	}
}

// end classifies how the stream finished against the expected count of
// per-item envelopes and writes the terminal envelope (best-effort). A
// non-nil failed — a run that ended in an error — reports an otherwise
// complete stream as truncated.
func (st *ndjson) end(expected int, failed error) {
	end := StreamEnd{Delivered: st.delivered, Expected: expected}
	switch {
	case st.err != nil:
		end.Reason, end.Error = "error", st.err.Error()
	case st.ctx.Err() != nil:
		end.Reason, end.Error = "canceled", st.ctx.Err().Error()
	case failed != nil:
		end.Reason, end.Error = "truncated", failed.Error()
	case st.delivered < expected:
		end.Reason = "truncated"
	default:
		end.Reason = "complete"
	}
	st.write(report.NewEnvelope(StreamEndKind, end))
}

func (s *Server) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a scenario batch to this endpoint"))
		return
	}
	body, ok := s.readBody(w, r, "batch")
	if !ok {
		return
	}
	raws, err := scenario.SplitSpecs(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(raws) > s.opts.MaxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d scenarios exceeds the limit of %d", len(raws), s.opts.MaxBatch))
		return
	}

	// Resolve specs (built-in bases allowed) before any simulation, so
	// malformed submissions fail atomically with a 400.
	specs := make([]scenario.Scenario, len(raws))
	for i, raw := range raws {
		spec, err := scenario.Resolve(raw, func(name string) (scenario.Scenario, bool) {
			return experiments.BuiltinScenario(s.cfg, name)
		})
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("scenario %d: %v", i, err))
			return
		}
		specs[i] = spec
	}

	st := s.startStream(w, r)

	// Fan the batch out over the runner's pool and stream each result in
	// submission order the moment it and its predecessors are done. The
	// request context is threaded all the way into the pipeline stages: a
	// client disconnect or an expired request deadline skips scenarios
	// not yet started AND fails queued stages of scenarios mid-pipeline
	// (an in-flight simulation still finishes — its stages are memoized
	// and shared, so the work is not wasted). A scenario whose pipeline
	// panicked arrives as a result with its "error" field set; the
	// stream, and every other request, keeps going.
	s.rn.RunBatchStream(r.Context(), specs, func(i int, res *scenario.Result) bool {
		return st.emit(res.Envelope())
	})
	st.end(len(specs), nil)
}

// sweep expands and executes a declarative parameter sweep, streaming
// one "sweep.point" envelope per completed point (in point order), a
// final "sweep.result" aggregate envelope, and the terminal
// "stream.end".
func (s *Server) sweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a sweep spec to this endpoint"))
		return
	}
	body, ok := s.readBody(w, r, "sweep spec")
	if !ok {
		return
	}
	sw, err := sweep.Parse(body, func(name string) (scenario.Scenario, bool) {
		return experiments.BuiltinScenario(s.cfg, name)
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Bound one submission exactly like a batch: the spec's own cap
	// applies when tighter, the server's limit otherwise (truncation is
	// recorded in the aggregate, never silent).
	if sw.MaxPoints == 0 || sw.MaxPoints > s.opts.MaxBatch {
		sw.MaxPoints = s.opts.MaxBatch
	}
	// Prepare pre-flight: with the cap clamped this is cheap
	// (simulation-free, and one plan lookup for a sweep seen before), and
	// it surfaces EVERY expansion error — not just what the parse-time
	// probes catch, e.g. a range whose later values break a field
	// constraint — as a proper 400 before the response header commits.
	plan, err := sweep.Prepare(s.rn, sw)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	st := s.startStream(w, r)
	res, _ := sweep.ExecutePrepared(r.Context(), s.rn, plan, func(p sweep.PointResult) { st.emit(p.Envelope()) })
	if res != nil {
		st.aggregate(res.Envelope())
	}
	st.end(plan.Len(), nil)
}

// explore runs a budgeted Pareto-guided exploration of a sweep-defined
// space, streaming one "explore.point" envelope per newly simulated
// point (in visit order; a rung-probed then promoted candidate streams
// once per fidelity), a final "explore.front" aggregate, and the
// terminal "stream.end". The spec's budget is clamped to the server's
// batch limit — the space itself may be far larger (it is indexed
// lazily, never expanded), which is exactly what the adaptive search is
// for. Checkpointing is a CLI concern; the server's continuity story is
// the shared runner memo (and durable store, when configured):
// resubmitting an exploration re-simulates nothing already computed.
func (s *Server) explore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST an exploration spec to this endpoint"))
		return
	}
	body, ok := s.readBody(w, r, "exploration spec")
	if !ok {
		return
	}
	ex, err := explore.Parse(body,
		func(name string) (scenario.Scenario, bool) { return experiments.BuiltinScenario(s.cfg, name) },
		func(name string) (sweep.Sweep, bool) { return experiments.BuiltinSweep(s.cfg, name) },
	)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Surface space-definition errors (a range whose later values break
	// a field constraint, dimension overflow) as a 400 before the
	// response header commits; total itself may legitimately be huge.
	if _, err := ex.Sweep.Index(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	budget := ex.Strategy.Budget
	if budget <= 0 || budget > s.opts.MaxBatch {
		budget = s.opts.MaxBatch
	}

	st := s.startStream(w, r)
	res, runErr := explore.Run(r.Context(), s.rn, ex, explore.Options{Budget: budget}, func(p explore.PointResult) { st.emit(p.Envelope()) })
	if res != nil && runErr == nil {
		st.aggregate(res.Envelope())
	}
	// An adaptive search's point count is not knowable upfront, so the
	// terminal envelope cannot promise an expected count the way the
	// batch and sweep streams do: expected mirrors delivered, and a
	// search failing mid-run is reported as a truncation.
	st.end(st.delivered, runErr)
}

// reject writes an over-capacity (or draining) response with the
// Retry-After hint of the load-shedding contract.
func (s *Server) reject(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.writeError(w, status, err)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("serve: writing %d response: %v", status, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, report.NewEnvelope("error", map[string]string{"error": err.Error()}))
}
