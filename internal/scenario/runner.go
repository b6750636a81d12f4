package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// Runner validates scenarios and executes them with content-addressed
// memoization. Memoization is per pipeline *stage* (profiling, the
// profile+solve leg, each measured execution), keyed by a hash of
// exactly the spec fields that stage depends on — so identical specs in
// a batch simulate once, and different scenarios sharing a stage share
// the simulation too: RunCommand's commands reuse the two applications'
// optimized scenarios, sweep points that differ only in axes a stage
// ignores share its runs, and the solo-composition scenario borrows the
// full application's optimization. A spec's migration-off shared run is
// its profile's first repetition, so the two stages read one simulation
// (sharedRep). Every simulation is deterministic at any worker count, so
// memoized and fresh results are bit-identical.
//
// On top of the stages, a successful scenario's assembled sections are
// memoized under its content key, so a warm scenario costs its
// normalization, one content-key hash and one lookup (see complete). A
// caller that runs the same scenarios again can keep them prepared
// (Prepare, RunPreparedStream) and skip the normalization and hash too;
// Memoize holds such values, a sweep's plan for one, in the memo.
//
// A batch is its distinct keys: its result hits and validation failures
// are served on the caller's goroutine, and the other scenarios are
// grouped by content key, one worker-pool task per key. A duplicate —
// a renamed copy, or an engine twin (the engine fields normalize to the
// production engines) — joins its key's group and is a result hit right
// after the group's first scenario executes, so it never holds a worker
// waiting on that execution (see RunBatchStream).
//
// A Runner is safe for concurrent use; the serve mode shares one across
// requests, turning the memo into a result cache. It runs at most
// workers simulations and trace captures at once (NewRunner; 0 =
// GOMAXPROCS), across all its callers: concurrent batches, sweeps and
// serve requests share that bound. The Go API's core.Profile and
// core.Run run outside it.
//
// The memo holds live values, not documents: one table whose entries
// carry a stage's single-flight state, its decoded value and the
// value's size, plus the memory-only result entries and Memoize
// values, evicted least-recently-used against one byte budget
// (memoBudget); each value's size comes from one walk of the value as
// it enters the memo. Concurrent identical lookups — including
// concurrent cold reads of the same durable record — collapse into one
// computation. With a durable store (the crash-safe on-disk CAS of
// internal/store), a completed stage is written through once as its
// record (see storecodec.go), and a memo miss consults the store before
// simulating, so warm results survive process restarts; a disk hit is
// decoded once and then held as a value. Result entries and Memoize
// values never reach the store: a restarted runner rebuilds them from
// the stage records. Durable-layer failures are retried and — when the
// medium keeps failing — degraded away by the store layer, and counted
// here, as every store event is; they never fail a scenario.
type Runner struct {
	// counts holds the runner's counters, each written atomically; it
	// stays the first field so its 64-bit words are aligned on 32-bit
	// targets. Its MemoEvictions stays zero: the memo counts those.
	counts Stats

	// slots holds one token per simulation or trace capture running, so
	// at most cap(slots) run at once, whoever calls; cap(slots) also
	// sizes the fan-outs (a batch's groups, an optimized scenario's two
	// legs, a profile stage's repetitions). It cannot deadlock because a
	// slot is held only while a simulation or capture body runs (see
	// slot), and that body never looks up the memo, never waits on a
	// stage or a fan-out and never writes the store: the slot is
	// released before fill persists. So no waiter holds a slot, and
	// every slot holder finishes.
	slots chan struct{}

	// memo serves completed stage values and result entries. The
	// sharing is safe because both are immutable once computed — every
	// consumer treats them read-only, which the differential suite
	// (sweep-vs-sequential bit-identity) and
	// TestMemoResultSectionsStayImmutable pin.
	memo    *memo
	durable *store.Resilient // optional crash-safe layer; nil = memory-only
}

// StagePanicError is a panic recovered inside a pipeline stage (or a
// worker executing one), converted into a structured error: the stage
// kind, the stage's content-address key, the recovered value, and the
// stack captured at recovery. It propagates to every single-flight
// waiter of the stage, the memo entry is evicted (a retry starts
// fresh), and batch consumers see it as the scenario's per-result
// "error" field — the process, and every other in-flight scenario,
// keeps running.
type StagePanicError struct {
	Stage string      // stage kind ("trace", "profile", "optimize", "run", or "scenario" outside any stage)
	Key   string      // the stage's memo key (content address), if any
	Value interface{} // the recovered panic value
	Stack string      // stack captured at recovery
}

// Error implements error.
func (e *StagePanicError) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("scenario: panic in %s: %v", e.Stage, e.Value)
	}
	return fmt.Sprintf("scenario: panic in %s stage (key %s): %v", e.Stage, e.Key, e.Value)
}

// NewRunner returns a memory-only Runner that runs at most workers
// simulations and trace captures at once (0 = GOMAXPROCS).
func NewRunner(workers int) *Runner {
	return NewRunnerWithStore(workers, nil)
}

// NewRunnerWithStore returns a Runner whose completed stage results are
// additionally persisted to (and warm-served from) the given durable
// store: the disk CAS wrapped in store.NewResilient, so transient I/O
// errors are retried and a persistently failing medium degrades to
// memory-only operation instead of failing scenarios. nil means
// memory-only.
func NewRunnerWithStore(workers int, durable *store.Resilient) *Runner {
	return &Runner{slots: make(chan struct{}, parallel.Workers(workers)), memo: newMemo(memoBudget), durable: durable}
}

// slot takes one of the runner's slots, waiting for one to free, and
// returns its release. A caller defers the release right away, so a
// body that panics still gives its slot back.
func (r *Runner) slot() (release func()) {
	r.slots <- struct{}{}
	return func() { <-r.slots }
}

// StoreMode reports the runner's persistence mode: "memory" without a
// durable store, "disk" with one, and "degraded" once a failing medium
// has been disabled by the store layer's breaker.
func (r *Runner) StoreMode() string {
	if r.durable == nil {
		return "memory"
	}
	return r.durable.Mode()
}

// TrimMemo evicts least-recently-used memo entries until at most n
// remain. Stages still in flight are never evicted; evicted results
// remain in the durable store (when configured) and otherwise recompute
// — every simulation is deterministic, so trimming never changes
// results.
func (r *Runner) TrimMemo(n int) { r.memo.trim(n) }

// MemoUsage reports the memo's resident entries and bytes against its
// byte budget.
func (r *Runner) MemoUsage() MemoUsage { return r.memo.usage() }

// Close releases the durable store, if any.
func (r *Runner) Close() error {
	if r.durable == nil {
		return nil
	}
	return r.durable.Close()
}

// Stats reports memoization effectiveness. All counters are monotonic,
// so the delta of two snapshots attributes stage work to the requests
// issued in between (the sweep aggregate records exactly that). A stage
// lookup is counted when it settles (see Runner.count): StageRuns, the
// per-kind *Runs and TraceBytes count executions that finished and were
// persisted, while Simulations counts simulations as they start, so a
// snapshot taken mid-flight can show Simulations ahead of them.
type Stats struct {
	StageRuns    uint64 `json:"stage_runs"`             // pipeline stages executed
	MemoHits     uint64 `json:"memo_hits"`              // stage requests served from the memo
	StageErrors  uint64 `json:"stage_errors,omitempty"` // failed stages (evicted, so later requests retry)
	StagePanics  uint64 `json:"stage_panics,omitempty"` // panics recovered into StagePanicError
	ProfileRuns  uint64 `json:"profile_runs"`           // profile stages executed
	OptimizeRuns uint64 `json:"optimize_runs"`          // optimize stages executed
	RunRuns      uint64 `json:"run_runs"`               // measured-execution stages executed
	Simulations  uint64 `json:"simulations"`            // platform simulations started (trace captures are TraceRuns)
	TraceRuns    uint64 `json:"trace_runs"`             // trace captures executed (functional runs)
	TraceHits    uint64 `json:"trace_hits"`             // trace requests served without capturing
	TraceBytes   uint64 `json:"trace_bytes,omitempty"`  // encoded bytes of traces captured
	DiskHits     uint64 `json:"disk_hits,omitempty"`    // stage requests served from the durable store
	DiskMisses   uint64 `json:"disk_misses,omitempty"`  // durable lookups that found no record
	StoreErrors  uint64 `json:"store_errors,omitempty"` // durable-store operations failed post-retry (never fatal)
	Quarantined  uint64 `json:"quarantined,omitempty"`  // corrupt durable records detected and quarantined
	// MemoEvictions counts memo entries dropped for the byte budget or on TrimMemo.
	MemoEvictions uint64 `json:"memo_evictions"`
}

// counters lists every counter of s, the one list Stats and Delta walk.
func (s *Stats) counters() [16]*uint64 {
	return [...]*uint64{
		&s.StageRuns, &s.MemoHits, &s.StageErrors, &s.StagePanics,
		&s.ProfileRuns, &s.OptimizeRuns, &s.RunRuns, &s.Simulations,
		&s.TraceRuns, &s.TraceHits, &s.TraceBytes,
		&s.DiskHits, &s.DiskMisses, &s.StoreErrors, &s.Quarantined,
		&s.MemoEvictions,
	}
}

// Delta returns the counter-wise difference s - before: the stage work
// attributable to the requests issued between the two snapshots (the
// sweep and explore aggregates record exactly this).
func (s Stats) Delta(before Stats) Stats {
	d, b := s.counters(), before.counters()
	for i := range d {
		*d[i] -= *b[i]
	}
	return s
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	var s Stats
	dst, src := s.counters(), r.counts.counters()
	for i := range dst {
		*dst[i] = atomic.LoadUint64(src[i])
	}
	s.MemoEvictions = r.memo.evictions.Load()
	return s
}

// Stage kinds, also the memo-key prefixes.
const (
	stageProfile  = "profile"
	stageOptimize = "optimize"
	stageRun      = "run"
	stageTrace    = "trace"
)

// resultKind is the memo-key prefix of result entries: a successful
// scenario's assembled sections under its content key, shared read-only
// by every result served from them. Result entries live in memory only
// — never encoded or written to the durable store — so a restarted
// runner rebuilds them from the stage records.
const resultKind = "result"

// memoryKind is the memo-key prefix of the values Memoize holds.
const memoryKind = "memory"

// Memoize serves a memory-only value from the memo under key: the first
// call for the key builds it, concurrent calls share that build, and a
// successful value stays resident, charged the heap bytes one walk of it
// finds against the memo's byte budget and evicted like any other entry,
// until trimmed or pushed out. It is never written to the durable store,
// and its lookups count nothing in Stats. A build that fails or panics
// releases every waiter with an error and caches nothing (a panic then
// continues on the building goroutine), so the next call builds afresh.
// A sweep memoizes its prepared points this way (see sweep.Prepare), and
// the runner each spec's shared repetition (sharedRep).
//
// The value must hold no cycles: the walk that sizes it would overflow
// the goroutine's stack, a fatal error that ends the process. Heap the
// value reaches only through interface or array fields is not charged.
func (r *Runner) Memoize(key string, build func() (any, error)) (any, error) {
	var buf memoKeyBuf
	e, owner := lookupKey(r.memo, buf.key(memoryKind, key))
	if !owner {
		<-e.done
		return e.val, e.err
	}
	var v any
	err := errStageAborted // until build returns; a panic unwinds with it
	defer func() { r.memo.settle(e, v, err) }()
	v, err = build()
	return v, err
}

// stage serves one pipeline-stage lookup through the memo, typed by the
// stage's value: a resident value is served as is; otherwise the first
// lookup of the key loads it from the durable store or computes it with
// f, and concurrent lookups of the key share that one computation, so
// concurrency semantics are independent of the storage backing.
//
// Errors are NOT memoized: a failed stage leaves the memo (nothing is
// stored), so a transient failure cannot poison the key for the
// lifetime of a long-lived shared runner — the next request retries.
// Callers that arrived while the failing computation was in flight
// still all observe its error (they were waiting on it), but any later
// lookup starts fresh.
//
// A canceled ctx fails the lookup before it touches the memo; it never
// aborts a computation already in flight (simulations are deterministic
// and their results are shared, so in-flight work is never wasted).
func stage[T any](ctx context.Context, r *Runner, kind, key string, f func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	v, err := r.lookup(kind, kind+"|"+key, func() (any, error) { return f() })
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// lookup is stage's untyped core over the full memo key: the owner of
// a new entry fills it, and every other lookup waits for the entry to
// settle, sharing a computation in flight. A hit allocates nothing.
func (r *Runner) lookup(kind, key string, f func() (any, error)) (any, error) {
	e, owner := r.memo.lookup(key)
	if owner {
		r.fill(kind, e, f)
		return e.val, e.err
	}
	<-e.done
	r.count(kind, sourceMemo, e.val, e.err)
	return e.val, e.err
}

// source is where a stage lookup's value came from.
type source string

const (
	sourceExecuted source = "executed" // this lookup ran the stage
	sourceDisk     source = "disk"     // this lookup decoded the stage's record
	sourceMemo     source = "memo"     // another lookup's value, resident or in flight
)

// count is the one writer of the stage counters: it records a stage
// lookup of kind by the source of its value and the outcome the lookup
// returned. An owner that failed counts StageErrors, beside the
// execution when it ran one; a waiter served a failure counts nothing,
// since its owner counts it. A trace hit also counts TraceHits, and a
// captured trace its bytes.
func (r *Runner) count(kind string, src source, v any, err error) {
	c := &r.counts
	switch src {
	case sourceMemo:
		if err != nil {
			return
		}
		atomic.AddUint64(&c.MemoHits, 1)
	case sourceDisk:
		if err == nil {
			atomic.AddUint64(&c.DiskHits, 1)
		}
	case sourceExecuted:
		atomic.AddUint64(&c.StageRuns, 1)
		switch kind {
		case stageProfile:
			atomic.AddUint64(&c.ProfileRuns, 1)
		case stageOptimize:
			atomic.AddUint64(&c.OptimizeRuns, 1)
		case stageRun:
			atomic.AddUint64(&c.RunRuns, 1)
		case stageTrace:
			atomic.AddUint64(&c.TraceRuns, 1)
		}
	}
	switch {
	case err != nil:
		atomic.AddUint64(&c.StageErrors, 1)
	case kind == stageTrace && src == sourceExecuted:
		atomic.AddUint64(&c.TraceBytes, uint64(v.(*tracefile.Trace).Size()))
	case kind == stageTrace:
		atomic.AddUint64(&c.TraceHits, 1)
	}
}

// errStageAborted settles an entry whose computation unwound without
// finishing, so its waiters fail instead of blocking forever.
var errStageAborted = errors.New("scenario: stage computation aborted")

// fill computes the entry this lookup owns — from the durable store
// when it holds the stage, otherwise by executing f and writing the
// result through to the store — and settles it, counting the lookup by
// the source of its value.
func (r *Runner) fill(kind string, e *memoEntry, f func() (any, error)) {
	var v any
	src := sourceDisk      // until the store misses; an unwind there counts the failure alone
	err := errStageAborted // until an outcome is known; a panic unwinds with it
	defer func() {
		defer r.memo.settle(e, v, err) // even if counting panics
		r.count(kind, src, v, err)
	}()
	if dv, ok := r.loadDurable(kind, e.key); ok {
		v, err = dv, nil
		return
	}
	src = sourceExecuted
	v, err = r.guarded(kind, e.key, f)
	if err == nil {
		r.persist(kind, e.key, v)
	}
}

// loadDurable consults the durable store for a completed stage result.
// A miss (a quarantined record is one too) and store failures are
// counted and swallowed — the caller falls through to simulation; a
// record that does not decode (a document of an unknown version or
// kind, or a trace record that is not a container) is treated the same
// way and deleted, and the recompute rewrites it. The lookup counts a
// hit (see count).
func (r *Runner) loadDurable(kind, key string) (any, bool) {
	if r.durable == nil {
		return nil, false
	}
	b, err := r.durable.Get(key)
	switch {
	case err == nil:
		v, derr := decodeStage(kind, b)
		if derr == nil {
			return v, true
		}
		atomic.AddUint64(&r.counts.StoreErrors, 1)
		r.durable.Delete(key)
	case errors.Is(err, store.ErrNotFound):
		atomic.AddUint64(&r.counts.DiskMisses, 1)
		if errors.Is(err, store.ErrQuarantined) {
			atomic.AddUint64(&r.counts.Quarantined, 1)
		}
	case errors.Is(err, store.ErrDegraded):
		// The breaker tripped: memory-only mode, nothing to count per op.
	default:
		atomic.AddUint64(&r.counts.StoreErrors, 1)
	}
	return nil, false
}

// persist writes a completed stage value through to the durable store
// as its record; memory-only runners encode nothing.
// Failures are counted, never propagated: a broken volume costs
// durability, not results.
func (r *Runner) persist(kind, key string, v any) {
	if r.durable == nil {
		return
	}
	b, err := encodeStage(kind, v)
	if err == nil {
		err = r.durable.Put(key, b)
	}
	if err != nil && !errors.Is(err, store.ErrDegraded) {
		atomic.AddUint64(&r.counts.StoreErrors, 1)
	}
}

// guarded executes one stage body with panic containment: a panic on
// this goroutine is recovered here, and a panic inside a nested
// parallel fan-out (profiling repetitions, study legs) arrives already
// recovered as the pool's *parallel.PanicError — both are converted to
// a *StagePanicError carrying the stage kind, memo key, recovered value
// and stack. The error flows to every single-flight waiter and evicts
// the memo entry exactly like any stage failure, so a panicked stage is
// retried by the next request instead of poisoning the key. The
// fault-injection point fires once per stage execution (a no-op outside
// the fault suite).
func (r *Runner) guarded(kind, key string, f func() (any, error)) (v any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			atomic.AddUint64(&r.counts.StagePanics, 1)
			v, err = nil, &StagePanicError{Stage: kind, Key: key, Value: rec, Stack: string(debug.Stack())}
		}
	}()
	if err := faults.Point(faults.SiteStage + kind); err != nil {
		return nil, err
	}
	v, err = f()
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		atomic.AddUint64(&r.counts.StagePanics, 1)
		v, err = nil, &StagePanicError{Stage: kind, Key: key, Value: pe.Value, Stack: string(pe.Stack)}
	}
	return v, err
}

// traceKey captures exactly what the capture stage depends on: the
// workload identity alone. A recorded trace is platform-, engine- and
// strategy-independent (capture happens at the Ctx API boundary, above
// all timing — see internal/tracefile), so one trace serves the
// profiler and every measured execution of every scenario sharing the
// workload.
type traceKey struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
}

// traceStageKey hashes what the capture stage depends on.
func traceStageKey(s Scenario) string {
	return hashJSON(traceKey{Workload: s.Workload, Scale: s.Scale, Seed: s.Seed})
}

// traceStage serves the scenario's recorded trace through the memo,
// capturing it from one live functional run on first use.
func (r *Runner) traceStage(ctx context.Context, s Scenario) (*tracefile.Trace, error) {
	return stage(ctx, r, stageTrace, traceStageKey(s), func() (*tracefile.Trace, error) {
		w, err := workloads.Build(s.Workload, s.buildConfig())
		if err != nil {
			return nil, err
		}
		defer r.slot()()
		return tracefile.Capture(w, tracefile.Meta{Workload: s.Workload, Scale: s.Scale, Seed: s.Seed})
	})
}

// workload returns the factory the pipeline stages build app instances
// from: a replay workload backed by the trace stage, so a warm trace
// makes every later stage skip functional execution entirely.
func (r *Runner) workload(ctx context.Context, s Scenario) (core.Workload, error) {
	t, err := r.traceStage(ctx, s)
	if err != nil {
		return core.Workload{}, err
	}
	return t.Workload(s.Workload), nil
}

// profileKey captures exactly what the profiling stage depends on.
type profileKey struct {
	Workload string       `json:"workload"`
	Scale    string       `json:"scale"`
	Seed     uint64       `json:"seed"`
	Platform PlatformSpec `json:"platform"`
	Exec     string       `json:"exec"`
	Runs     int          `json:"runs"`
	Engine   string       `json:"engine"`
	Level    string       `json:"level,omitempty"`
	Sizes    []int        `json:"sizes"`
}

// profileStageKey hashes exactly what the profiling stage depends on.
func profileStageKey(s Scenario) string {
	return hashJSON(profileKey{
		Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
		Platform: *s.Platform, Exec: s.ExecEngine,
		Runs: s.Runs, Engine: s.ProfileEngine, Level: s.ProfileLevel, Sizes: s.Sizes,
	})
}

// profileStage averages the spec's profiling repetitions: the first is
// its shared repetition (sharedRep), and the others are simulated here,
// concurrently with reading it.
func (r *Runner) profileStage(ctx context.Context, s Scenario) ([]profile.Curve, error) {
	return stage(ctx, r, stageProfile, profileStageKey(s), func() ([]profile.Curve, error) {
		oc, err := s.optimizeConfig()
		if err != nil {
			return nil, err
		}
		// Nested lookups are detached from ctx: the closure may be
		// computing on behalf of many single-flight waiters.
		var w core.Workload
		if s.Runs > 1 {
			if w, err = r.workload(context.Background(), s); err != nil {
				return nil, err
			}
		}
		runs := make([][]profile.Curve, s.Runs)
		err = parallel.Do(cap(r.slots), s.Runs, func(i int) error {
			if i == 0 {
				rep, err := r.sharedRep(s)
				if err != nil {
					return err
				}
				runs[0] = rep.curves
				return nil
			}
			_, curves, err := r.profileRep(w, oc, i)
			runs[i] = curves
			return err
		})
		if err != nil {
			return nil, err
		}
		return profile.Average(runs)
	})
}

// sharedRep is a spec's shared repetition: its profiling repetition 0,
// the shared-cache simulation at the unjittered quantum with migration
// off and the profiler attached. It is at once the spec's migration-off
// shared baseline (run) and its profile's first repetition (curves).
type sharedRep struct {
	run    *core.Result
	curves []profile.Curve
}

// sharedRepKey keys a spec's shared repetition: its profile key with
// runs cleared, since the repetition is the same at any number of runs.
func sharedRepKey(s Scenario) string {
	s.Runs = 0
	return "shared-rep|" + profileStageKey(s)
}

// sharedRep serves the spec's shared repetition to the migration-off
// run.shared stage and the profile stage, which both read it and so
// simulate it once. It is a memory-only value (Memoize): concurrent
// readers share its one build, it never reaches the durable store, and
// its lookups count nothing in Stats, so each stage still fills, counts
// and persists its own entry. Its build looks up the trace alone, never
// either stage that reads it, so no wait cycle can form.
func (r *Runner) sharedRep(s Scenario) (*sharedRep, error) {
	v, err := r.Memoize(sharedRepKey(s), func() (any, error) {
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		oc, err := s.optimizeConfig()
		if err != nil {
			return nil, err
		}
		run, curves, err := r.profileRep(w, oc, 0)
		if err != nil {
			return nil, err
		}
		return &sharedRep{run: run, curves: curves}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sharedRep), nil
}

// profileRep simulates profiling repetition rep of a fresh app of w. It
// takes its slot before building the app, so a repetition waiting for a
// slot holds no built app.
func (r *Runner) profileRep(w core.Workload, oc core.OptimizeConfig, rep int) (*core.Result, []profile.Curve, error) {
	defer r.slot()()
	app, err := w.Factory()
	if err != nil {
		return nil, nil, err
	}
	atomic.AddUint64(&r.counts.Simulations, 1)
	return core.ProfileRep(app, oc, rep)
}

// optimizeKey extends profileKey with the solver. Normalize pins it to
// "mckp", and hashing it keeps every optimize key byte-identical to the
// keys stored before the ILP spelling normalized away.
type optimizeKey struct {
	profileKey
	Solver string `json:"solver"`
}

// optimizeStageKey hashes what the profile+solve stage depends on.
func optimizeStageKey(s Scenario) string {
	return hashJSON(optimizeKey{
		profileKey: profileKey{
			Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
			Platform: *s.Platform, Exec: s.ExecEngine,
			Runs: s.Runs, Engine: s.ProfileEngine, Level: s.ProfileLevel, Sizes: s.Sizes,
		},
		Solver: s.Solver,
	})
}

func (r *Runner) optimizeStage(ctx context.Context, s Scenario) (*core.OptimizeResult, error) {
	return stage(ctx, r, stageOptimize, optimizeStageKey(s), func() (*core.OptimizeResult, error) {
		// The closure may be computing on behalf of many single-flight
		// waiters; once started it completes regardless of the first
		// caller's fate, so the nested profile lookup is detached from
		// ctx — otherwise one client's disconnect would fail another
		// client's in-flight optimize with its cancellation error.
		curves, err := r.profileStage(context.Background(), s)
		if err != nil {
			return nil, err
		}
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		app, err := w.Factory()
		if err != nil {
			return nil, err
		}
		oc, err := s.optimizeConfig()
		if err != nil {
			return nil, err
		}
		return core.OptimizeFromCurves(app, curves, oc)
	})
}

// runKey captures exactly what one measured execution depends on. The
// partitioned run's allocation is identified by the key of the optimize
// stage that produced it, not its content.
type runKey struct {
	Workload  string       `json:"workload"`
	Scale     string       `json:"scale"`
	Seed      uint64       `json:"seed"`
	Platform  PlatformSpec `json:"platform"`
	Exec      string       `json:"exec"`
	Strategy  string       `json:"strategy"`
	Migration bool         `json:"migration"`
	AllocKey  string       `json:"alloc_key,omitempty"`
}

// runStageKey hashes what one measured execution depends on.
func runStageKey(s Scenario, strat core.Strategy, allocKey string) string {
	return hashJSON(runKey{
		Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
		Platform: *s.Platform, Exec: s.ExecEngine,
		Strategy: strat.String(), Migration: s.Migration, AllocKey: allocKey,
	})
}

// runStage measures one execution. A migration-off shared run is the
// spec's shared repetition, so it reads that instead of simulating.
func (r *Runner) runStage(ctx context.Context, s Scenario, strat core.Strategy, alloc core.Allocation, allocKey string) (*core.Result, error) {
	return stage(ctx, r, stageRun, runStageKey(s, strat, allocKey), func() (*core.Result, error) {
		if strat == core.Shared && !s.Migration {
			rep, err := r.sharedRep(s)
			if err != nil {
				return nil, err
			}
			return rep.run, nil
		}
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		pc, err := s.Platform.Config()
		if err != nil {
			return nil, err
		}
		pc.Sched.AllowMigration = s.Migration
		rc := core.RunConfig{Platform: pc, Strategy: strat, Alloc: alloc}
		defer r.slot()()
		atomic.AddUint64(&r.counts.Simulations, 1)
		return core.Run(w, rc)
	})
}

// allocSpec returns the spec whose optimization provides the partitioned
// run's allocation: the scenario itself, or its AllocWorkload stand-in.
func allocSpec(s Scenario) Scenario {
	if s.AllocWorkload == "" {
		return s
	}
	a := s
	a.Workload = s.AllocWorkload
	a.AllocWorkload = ""
	return a
}

// allocStageKey mirrors optimizeStage's key derivation, for runKey.
func allocStageKey(s Scenario) string {
	return optimizeStageKey(allocSpec(s))
}

// StageKeys returns the full store keys ("<kind>|<hash>") of every
// pipeline stage the scenario's partition policy executes, labeled
// "profile", "optimize", "run.shared" and "run.partitioned", plus the
// trace stage every one of them replays ("trace", and "trace.alloc" for
// an alloc_workload stand-in). These keys are durable identifiers:
// persisted results are addressed by them across process restarts, so
// any drift in Normalize or the per-stage key derivations silently
// orphans every cached result — the golden tests pin them for the
// built-in scenarios.
func (s Scenario) StageKeys() (map[string]string, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	keys := make(map[string]string)
	switch n.Partition {
	case PartitionProfile:
		keys["profile"] = stageProfile + "|" + profileStageKey(n)
	case PartitionOptimize:
		keys["profile"] = stageProfile + "|" + profileStageKey(n)
		keys["optimize"] = stageOptimize + "|" + optimizeStageKey(n)
	case PartitionShared:
		keys["run.shared"] = stageRun + "|" + runStageKey(n, core.Shared, "")
	case PartitionOptimized:
		a := allocSpec(n)
		keys["profile"] = stageProfile + "|" + profileStageKey(a)
		keys["optimize"] = stageOptimize + "|" + optimizeStageKey(a)
		keys["run.shared"] = stageRun + "|" + runStageKey(n, core.Shared, "")
		keys["run.partitioned"] = stageRun + "|" + runStageKey(n, core.Partitioned, allocStageKey(n))
	}
	keys["trace"] = stageTrace + "|" + traceStageKey(n)
	if a := allocSpec(n); a.Workload != n.Workload {
		keys["trace.alloc"] = stageTrace + "|" + traceStageKey(a)
	}
	return keys, nil
}

// Run normalizes and executes one scenario. The returned Result always
// carries the normalized spec and content key when normalization
// succeeded; on a pipeline failure the error is returned and also
// recorded in Result.Error, so batch consumers can use either form.
func (r *Runner) Run(s Scenario) (*Result, error) {
	return r.RunContext(context.Background(), s)
}

// RunContext is Run under a context: a canceled ctx fails pipeline
// stages not yet started (nothing is memoized for them), so a dropped
// serve-mode connection stops burning the worker pool. A stage already
// in flight runs to completion — its result is memoized and shared, so
// that work is never wasted.
//
// RunContext never panics: stage panics are contained by the memo layer
// (see StagePanicError), and a panic anywhere else in the pipeline —
// normalization, summarization — is recovered into the same structured
// shape, so one crashing scenario is one error result, not a dead
// process.
func (r *Runner) RunContext(ctx context.Context, s Scenario) (*Result, error) {
	res, err := r.Prepare(s)
	if err != nil {
		return res, err
	}
	return r.complete(ctx, res)
}

// Prepare is a scenario's normalize+key step: the returned Result
// carries the normalized spec and its content key, or the validation
// error (also recorded in Result.Error). It executes nothing, so a
// prepared result can be run any number of times by RunPreparedStream.
func (r *Runner) Prepare(s Scenario) (res *Result, err error) {
	// The result carries the spec as given until it normalizes and keys,
	// so a validation error or a panic records what the caller passed.
	spec := s
	res = &Result{SchemaVersion: report.SchemaVersion, Scenario: &spec}
	defer r.containPanic(res, &err)
	n, err := s.Normalize()
	if err != nil {
		res.Error = err.Error()
		return res, err
	}
	res.Key = n.contentKey()
	spec = n
	return res, nil
}

// complete is a scenario's execute step: it fills the sections of a
// prepared result, or records the pipeline's error in it.
//
// A result entry serves the sections of a content key that already
// succeeded, skipping stage keys, the leg fan-out and summarization; it
// counts as the top-level stage lookups it replaces (three for the
// optimized policy, one otherwise), so Stats read as if those stages
// were memo hits. A miss executes and, on success only, inserts the
// sections — cache-aside, so each request's ctx still decides which
// stages start, while concurrent identical misses share every stage
// through the stage single-flight. A canceled ctx skips the lookup and
// fails in the first stage.
func (r *Runner) complete(ctx context.Context, prepared *Result) (res *Result, err error) {
	res = prepared
	defer r.containPanic(res, &err)
	if ctx.Err() == nil {
		if c, ok := r.memo.get(resultKind, res.Key).(*Result); ok {
			atomic.AddUint64(&r.counts.MemoHits, resultHits(res))
			res.setSections(c)
			return res, nil
		}
	}
	if err = r.execute(ctx, *res.Scenario, res); err != nil {
		res.Error = err.Error()
		res.setSections(&Result{})
		return res, err
	}
	c := &Result{}
	c.setSections(res)
	r.memo.put(resultKind+"|"+res.Key, c)
	return res, nil
}

// resultHits is the number of top-level stage lookups a result hit of
// prepared replaces: three for the optimized policy, one otherwise.
func resultHits(prepared *Result) uint64 {
	if prepared.Scenario.Partition == PartitionOptimized {
		return 3
	}
	return 1
}

// setSections points res's sections at c's.
func (res *Result) setSections(c *Result) {
	res.Shared, res.Partitioned, res.Optimize, res.Compose, res.Curves = c.Shared, c.Partitioned, c.Optimize, c.Compose, c.Curves
}

// containPanic, deferred by Prepare and complete, recovers a panic
// outside any stage into a StagePanicError recorded in res.
func (r *Runner) containPanic(res *Result, err *error) {
	rec := recover()
	if rec == nil {
		return
	}
	atomic.AddUint64(&r.counts.StagePanics, 1)
	p := &StagePanicError{Stage: "scenario", Key: res.Key, Value: rec, Stack: string(debug.Stack())}
	res.Error = p.Error()
	res.setSections(&Result{})
	*err = p
}

// execute fills the result sections the partition policy calls for.
func (r *Runner) execute(ctx context.Context, n Scenario, res *Result) error {
	switch n.Partition {
	case PartitionProfile:
		curves, err := r.profileStage(ctx, n)
		if err != nil {
			return err
		}
		res.Curves = summarizeCurves(curves)
		return nil

	case PartitionOptimize:
		opt, err := r.optimizeStage(ctx, n)
		if err != nil {
			return err
		}
		res.Optimize = summarizeOptimize(opt)
		return nil

	case PartitionShared:
		shared, err := r.runStage(ctx, n, core.Shared, nil, "")
		if err != nil {
			return err
		}
		res.Shared = summarizeRun(shared)
		return nil

	case PartitionOptimized:
		// The shared baseline and the profile+optimize leg run
		// concurrently, so a cold scenario's wall time is the longer
		// leg, not their sum: with migration on they are independent
		// simulations, and with it off both read the shared
		// repetition, which the profile's other repetitions overlap.
		// The partitioned run needs the optimized allocation and
		// follows.
		var (
			shared *core.Result
			opt    *core.OptimizeResult
		)
		legs := []func() error{
			func() error {
				var err error
				shared, err = r.runStage(ctx, n, core.Shared, nil, "")
				if err != nil {
					return fmt.Errorf("scenario: shared run: %w", err)
				}
				return nil
			},
			func() error {
				var err error
				opt, err = r.optimizeStage(ctx, allocSpec(n))
				if err != nil {
					return fmt.Errorf("scenario: optimize: %w", err)
				}
				return nil
			},
		}
		if err := parallel.Do(cap(r.slots), len(legs), func(i int) error { return legs[i]() }); err != nil {
			return err
		}
		part, err := r.runStage(ctx, n, core.Partitioned, opt.Allocation, allocStageKey(n))
		if err != nil {
			return fmt.Errorf("scenario: partitioned run: %w", err)
		}
		res.Shared = summarizeRun(shared)
		res.Partitioned = summarizeRun(part)
		res.Optimize = summarizeOptimize(opt)
		res.Compose = summarizeCompose(core.CompareExpectedSimulated(opt.Expected, part))
		return nil
	}
	return fmt.Errorf("scenario: unknown partition policy %q", n.Partition)
}

// RunBatch executes a batch over the worker pool. Results come back in
// input order; a scenario's failure is recorded in its Result.Error
// without failing the batch (the returned slice always has len(specs)
// non-nil entries).
func (r *Runner) RunBatch(specs []Scenario) []*Result {
	return r.RunBatchContext(context.Background(), specs)
}

// RunBatchContext is RunBatch under a context. Scenarios not yet started
// when ctx is canceled are skipped and their slots stay nil — a dropped
// client cancels queued work instead of burning the worker pool.
// Scenarios already in flight finish normally (and keep their results).
func (r *Runner) RunBatchContext(ctx context.Context, specs []Scenario) []*Result {
	results, _, done := r.RunBatchStream(ctx, specs, nil)
	<-done
	return results
}

// RunBatchStream executes a batch over the worker pool, invoking
// observe for each finished scenario in submission order as soon as it
// and all its predecessors are done — the shape both the serve
// endpoints and the sweep executor stream from. observe returning false
// abandons the in-order walk (useful when the consumer is gone);
// execution already in flight continues in the background, governed by
// ctx exactly as in RunBatchContext, with canceled-before-start slots
// left nil. The walk also ends at the first nil slot (nothing later can
// be streamed in order past a hole).
//
// A batch is its distinct keys. Every scenario is prepared (normalized
// and keyed) up front, on the caller's goroutine, and one that failed to
// prepare or whose content key has a result entry is final right there:
// validation failures and result hits never reach the worker pool, so a
// warm batch costs its preparing and one lookup per scenario. The other
// scenarios are grouped by content key in order of first appearance — a
// renamed copy or an engine twin joins its key's group — and each group
// is one pool task that completes its scenarios in input order: the
// first executes, and the rest are result hits that keep their own
// normalized spec and name. Errors are never memoized, so when the first
// fails the next re-executes. A canceled ctx leaves every scenario not
// yet started nil, and a group whose task died gives each scenario it
// did not finish a synthesized error result.
//
// RunBatchStream returns as soon as the walk ends; the results and
// errors slices are safe to read in full only after the returned
// channel is closed (every group finished; a batch with no group starts
// no goroutine and returns it closed). Slots already visited by observe
// are safe immediately.
func (r *Runner) RunBatchStream(ctx context.Context, specs []Scenario, observe func(int, *Result) bool) ([]*Result, []error, <-chan struct{}) {
	prepared := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	for i, s := range specs {
		prepared[i], errs[i] = r.Prepare(s)
	}
	return r.stream(ctx, prepared, errs, observe)
}

// RunPreparedStream is RunBatchStream over scenarios already prepared by
// Prepare: prepared holds what Prepare returned for each scenario and
// errs its errors (nil when none failed); a sweep plan keeps its points
// this way. Every slot gets a fresh Result carrying its prepared key and
// validation error and pointing at its prepared spec, so the prepared
// results are never written and one prepared list can run any number of
// times, concurrently too. The results share each prepared spec
// read-only, and are allocated together as one slab: a point result
// retained past the batch keeps the whole batch's slab alive.
func (r *Runner) RunPreparedStream(ctx context.Context, prepared []*Result, errs []error, observe func(int, *Result) bool) ([]*Result, []error, <-chan struct{}) {
	slab := make([]Result, len(prepared))
	fresh := make([]*Result, len(prepared))
	for i, p := range prepared {
		slab[i] = Result{SchemaVersion: p.SchemaVersion, Key: p.Key, Scenario: p.Scenario, Error: p.Error}
		fresh[i] = &slab[i]
	}
	perrs := make([]error, len(prepared))
	copy(perrs, errs)
	return r.stream(ctx, fresh, perrs, observe)
}

// served is the workers-finished channel of a batch with no group:
// closed from the start.
var served = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// stream runs a prepared batch in place: results holds each scenario's
// prepared result, which becomes its result, and errs its validation
// error.
func (r *Runner) stream(ctx context.Context, results []*Result, errs []error, observe func(int, *Result) bool) ([]*Result, []error, <-chan struct{}) {
	if ctx.Err() != nil {
		return make([]*Result, len(results)), make([]error, len(results)), served
	}
	b := r.group(ctx, results, errs)
	done := served
	if b != nil {
		running := make(chan struct{})
		go b.run(running)
		done = running
	}
	for i := range results {
		if b != nil && b.ready[i] != nil {
			<-b.ready[i]
		}
		if results[i] == nil || observe != nil && !observe(i, results[i]) {
			break
		}
	}
	return results, errs, done
}

// batch is the part of a prepared batch that goes to the worker pool:
// its slots grouped by content key.
type batch struct {
	r       *Runner
	ctx     context.Context
	results []*Result
	errs    []error
	groups  [][]int         // the slots of each content key, in input order
	ready   []chan struct{} // closed once a grouped slot is final; nil for the others
}

// group finalizes the slots of a prepared batch that failed to prepare
// or have a result entry, serving and counting each hit as complete
// does, and groups the rest by content key in order of first
// appearance. It returns nil, having allocated nothing, when every slot
// is final.
func (r *Runner) group(ctx context.Context, results []*Result, errs []error) *batch {
	var (
		b    *batch
		keys map[string]int // content key → its index in b.groups
		hits uint64
	)
	for i, res := range results {
		if errs[i] != nil {
			continue
		}
		if c, ok := r.memo.get(resultKind, res.Key).(*Result); ok {
			res.setSections(c)
			hits += resultHits(res)
			continue
		}
		if b == nil {
			b = &batch{r: r, ctx: ctx, results: results, errs: errs, ready: make([]chan struct{}, len(results))}
			keys = make(map[string]int)
		}
		g, ok := keys[res.Key]
		if !ok {
			g = len(b.groups)
			keys[res.Key] = g
			b.groups = append(b.groups, nil)
		}
		b.groups[g] = append(b.groups[g], i)
		b.ready[i] = make(chan struct{})
	}
	atomic.AddUint64(&r.counts.MemoHits, hits)
	return b
}

// run completes each group as one task of the worker pool, its slots in
// input order until ctx is canceled, and closes done once every slot is
// final.
func (b *batch) run(done chan<- struct{}) {
	defer close(done)
	finished := make([]int, len(b.groups))
	err := parallel.Do(cap(b.r.slots), len(b.groups), func(g int) error {
		for _, i := range b.groups[g] {
			if b.ctx.Err() != nil {
				break
			}
			b.results[i], b.errs[i] = b.r.complete(b.ctx, b.results[i])
			finished[g]++
			close(b.ready[i])
		}
		return nil
	})
	// A slot its group did not finish is unstarted under a canceled ctx
	// (nil). Under a live ctx its group's task died — an injected
	// dispatch fault, or a panic the pool recovered outside the
	// scenarios' own containment — so err is set: the slot gets a
	// synthesized error result, and the in-order walk neither hangs nor
	// mistakes the hole for a cancellation.
	for g, slots := range b.groups {
		for _, i := range slots[finished[g]:] {
			if b.ctx.Err() != nil {
				b.results[i] = nil
			} else {
				b.errs[i] = err
				b.results[i].Error = err.Error()
			}
			close(b.ready[i])
		}
	}
}
