// Command compmem regenerates the evaluation artifacts of "Compositional
// memory systems for multimedia communicating tasks" (Molnos et al.,
// DATE 2005) on the simulated CAKE platform, and exposes the declarative
// scenario API: every command below resolves to built-in scenario specs
// executed on a memoizing batch runner, arbitrary specs run from JSON
// files, and `serve` exposes the same surface over HTTP.
//
// Usage:
//
//	compmem [-small] [-runs N] [-workers N] [-json] <command>
//
// Commands:
//
//	table1    optimized L2 allocation for 2×JPEG + Canny (paper Table 1)
//	table2    optimized L2 allocation for MPEG-2 (paper Table 2)
//	fig2      shared vs partitioned misses per entity (paper Figure 2)
//	fig3      expected vs simulated misses (paper Figure 3)
//	headline  miss ratios, miss rates and CPI for both apps (section 5)
//	compose   compositionality ablation: jpeg1 alone vs co-scheduled (X1)
//	granularity  set- vs way-partitioning comparison (X2)
//	assign    task-to-processor assignment search, section 3.1 model (X3)
//	split     task-unified vs split instruction/data partitions (X4)
//	migration schedule sensitivity under task migration (X5)
//	curves    dump the profiled per-entity miss curves m_i(z_p)
//	all       everything above except curves
//	trace     record, inspect and replay access-stream traces:
//	          trace record -workload NAME [-scale small|paper] [-seed N] [-o file.ctr]
//	          trace info file.ctr | trace replay [-verify=false] file.ctr
//	run       execute scenario specs: run -scenario file.json [-trace file.ctr] [-store-dir DIR] [-json]
//	sweep     expand and run a parameter sweep: sweep -spec file.json|paper-grid [-max-points N] [-json]
//	explore   budgeted Pareto-guided search over a sweep space:
//	          explore -spec file.json|paper-grid [-budget N] [-checkpoint DIR] [-resume] [-store-dir DIR] [-json]
//	serve     HTTP scenario service: serve [-addr :8080] [-store-dir DIR] [-max-inflight N] [-queue N] [-request-timeout D] [-drain D]
//	scenarios list built-in scenarios, sweeps and registered workloads
//
// With -json, every evaluation command emits its artifacts as versioned
// JSON envelopes instead of text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// newRunner builds the scenario runner, optionally backed by the
// crash-safe on-disk result store at storeDir (created if missing).
// The disk layer is wrapped for resilience: transient I/O errors are
// retried with backoff, and a persistently failing volume trips the
// store into memory-only degradation instead of failing scenarios.
func newRunner(cfg experiments.Config, storeDir string) (*scenario.Runner, error) {
	if storeDir == "" {
		return scenario.NewRunner(cfg.Workers), nil
	}
	ds, err := store.OpenDisk(storeDir)
	if err != nil {
		return nil, err
	}
	return scenario.NewRunnerWithStore(cfg.Workers, store.NewResilient(ds, store.ResilientOptions{})), nil
}

func main() {
	small := flag.Bool("small", false, "use the fast, small-scale workloads")
	runs := flag.Int("runs", 2, "profiling repetitions for miss-curve averaging")
	workers := flag.Int("workers", 0, "run at most this many simulations and trace captures at once, across all requests; 0 = GOMAXPROCS")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON envelopes on stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile after the command to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: compmem [flags] table1|table2|fig2|fig3|headline|compose|granularity|split|migration|assign|curves|all|trace|run|sweep|explore|serve|scenarios\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.ConfigFromFlags(experiments.Flags{
		Small:   *small,
		Runs:    *runs,
		Workers: *workers,
	})

	profiling := false
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		profiling = true
	}

	cmd, rest := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "trace":
		err = runTrace(cfg, rest, *asJSON)
	case "run":
		err = runScenarios(cfg, rest, *asJSON)
	case "sweep":
		err = runSweep(cfg, rest, *asJSON)
	case "explore":
		err = runExplore(cfg, rest, *asJSON)
	case "serve":
		err = runServe(cfg, rest)
	case "scenarios":
		err = expectNoArgs(cmd, rest)
		if err == nil {
			err = listScenarios(cfg, *asJSON)
		}
	default:
		err = expectNoArgs(cmd, rest)
		if err == nil {
			err = runCommand(cmd, cfg, *asJSON)
		}
	}
	// Complete both profiles before any exit path — a failing run is
	// exactly the one a user wants to profile.
	if profiling {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		// Materialize the live heap: without a collection the profile
		// only reflects the last automatic GC cycle.
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compmem:", err)
	os.Exit(1)
}

// expectNoArgs rejects stray arguments after commands that take none,
// so `compmem fig2 fig3` fails loudly instead of dropping fig3.
func expectNoArgs(cmd string, rest []string) error {
	if len(rest) != 0 {
		return fmt.Errorf("%s takes no arguments (got %q)", cmd, rest)
	}
	return nil
}

// runCommand executes one evaluation command through the scenario layer
// and prints the legacy text (or, with -json, the artifact envelopes).
func runCommand(cmd string, cfg experiments.Config, asJSON bool) error {
	rn := scenario.NewRunner(cfg.Workers)
	out, err := experiments.RunCommand(cmd, cfg, rn)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out.Documents)
	}
	fmt.Print(out.Text)
	return nil
}

// runScenarios executes arbitrary scenario specs from a JSON file (a
// single spec, an array, or {"scenarios":[...]}; specs may overlay any
// built-in through "base"). A bare built-in name also works.
func runScenarios(cfg experiments.Config, args []string, asJSON bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	path := fs.String("scenario", "", "scenario spec: a JSON file or a built-in scenario name")
	traceFile := fs.String("trace", "", "import a recorded trace file as a workload named trace:<recorded workload> before running")
	storeDir := fs.String("store-dir", "", "durable result store directory: completed pipeline stages persist here and warm-serve across runs")
	subJSON := fs.Bool("json", false, "emit result documents as JSON (one envelope per scenario)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("run: -scenario file.json (or a built-in name) is required")
	}
	if *traceFile != "" {
		t, err := tracefile.ReadFile(*traceFile)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		name := "trace:" + t.Header.Meta.Workload
		if err := tracefile.RegisterWorkload(name, t); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		fmt.Fprintf(os.Stderr, "compmem: imported %s as workload %q\n", *traceFile, name)
	}
	specs, err := loadSpecs(cfg, *path)
	if err != nil {
		return err
	}
	rn, err := newRunner(cfg, *storeDir)
	if err != nil {
		return err
	}
	defer rn.Close()
	results := rn.RunBatch(specs)

	if asJSON || *subJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range results {
			if err := enc.Encode(r.Envelope()); err != nil {
				return err
			}
		}
	} else {
		for i, r := range results {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(experiments.RenderResult(r))
		}
	}
	for i, r := range results {
		if r.Error != "" {
			return fmt.Errorf("scenario %d: %s", i, r.Error)
		}
	}
	return nil
}

// loadSpecs reads scenario specs from a file, or resolves a built-in
// scenario name.
func loadSpecs(cfg experiments.Config, path string) ([]scenario.Scenario, error) {
	lookup := func(name string) (scenario.Scenario, bool) {
		return experiments.BuiltinScenario(cfg, name)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if spec, ok := lookup(path); ok {
			return []scenario.Scenario{spec}, nil
		}
		return nil, fmt.Errorf("run: %w (and %q is not a built-in scenario; see `compmem scenarios`)", err, path)
	}
	raws, err := scenario.SplitSpecs(raw)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	specs := make([]scenario.Scenario, len(raws))
	for i, r := range raws {
		spec, err := scenario.Resolve(r, lookup)
		if err != nil {
			return nil, fmt.Errorf("run: scenario %d: %w", i, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// runSweep expands and executes a declarative parameter sweep from a
// JSON spec file or a built-in sweep name.
func runSweep(cfg experiments.Config, args []string, asJSON bool) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	path := fs.String("spec", "", "sweep spec: a JSON file or a built-in sweep name (see `compmem scenarios`)")
	maxPoints := fs.Int("max-points", 0, "cap the expansion to the first N points (0 = the spec's own max_points)")
	subJSON := fs.Bool("json", false, "stream per-point envelopes plus the final aggregate as NDJSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("sweep: -spec file.json (or a built-in name, e.g. %q) is required", experiments.SweepPaperGrid)
	}
	lookup := func(name string) (scenario.Scenario, bool) {
		return experiments.BuiltinScenario(cfg, name)
	}
	var sw sweep.Sweep
	if raw, err := os.ReadFile(*path); err == nil {
		if sw, err = sweep.Parse(raw, lookup); err != nil {
			return err // already "sweep:"-prefixed
		}
	} else if builtin, ok := experiments.BuiltinSweep(cfg, *path); ok {
		sw = builtin
	} else {
		return fmt.Errorf("sweep: %w (and %q is not a built-in sweep; built-ins: %v)", err, *path, experiments.BuiltinSweepNames())
	}
	if *maxPoints > 0 {
		sw.MaxPoints = *maxPoints
	}

	rn := scenario.NewRunner(cfg.Workers)
	var observe func(sweep.PointResult)
	var encErr error
	enc := json.NewEncoder(os.Stdout)
	if asJSON || *subJSON {
		observe = func(p sweep.PointResult) {
			if err := enc.Encode(p.Envelope()); err != nil && encErr == nil {
				encErr = err
			}
		}
	}
	res, err := sweep.Execute(context.Background(), rn, sw, observe)
	if err != nil {
		return err // expansion errors are already "sweep:"-prefixed
	}
	if encErr != nil {
		return fmt.Errorf("sweep: writing point envelopes: %w", encErr)
	}
	if asJSON || *subJSON {
		if err := enc.Encode(res.Envelope()); err != nil {
			return err
		}
	} else {
		fmt.Print(sweep.Render(res))
	}
	// Individual point failures are data (exploratory grids legitimately
	// contain infeasible corners), but a sweep where nothing succeeded
	// must not exit 0 — in either output mode.
	if res.Failed == res.Executed && res.Executed > 0 {
		return fmt.Errorf("sweep: every point failed (first error: %s)", firstError(res))
	}
	return nil
}

// firstError returns the lowest-index point failure of a sweep.
func firstError(res *sweep.Result) string {
	for _, p := range res.Points {
		if p.Error != "" {
			return p.Error
		}
	}
	return "none recorded"
}

// runServe starts the HTTP scenario service with admission control and
// a signal-driven graceful drain: SIGINT/SIGTERM stops accepting new
// work and lets in-flight streams finish within the -drain budget.
func runServe(cfg experiments.Config, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store-dir", "", "durable result store directory: completed pipeline stages persist here and warm-serve across restarts")
	maxInflight := fs.Int("max-inflight", serve.DefaultMaxInflight, "max concurrently admitted simulation requests")
	queue := fs.Int("queue", serve.DefaultQueue, "wait-queue slots beyond -max-inflight before shedding with 429 (negative disables queueing)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request simulation deadline (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain budget for in-flight streams on SIGINT/SIGTERM (0 = wait indefinitely)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rn, err := newRunner(cfg, *storeDir)
	if err != nil {
		return err
	}
	defer rn.Close()
	logger := log.New(os.Stderr, "compmem: ", log.LstdFlags)
	s := serve.NewWithOptions(cfg, rn, serve.Options{
		MaxInflight:    *maxInflight,
		Queue:          *queue,
		RequestTimeout: *requestTimeout,
		Logf:           logger.Printf,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("serving scenario API on %s (store: %s, workloads: %v)", l.Addr(), rn.StoreMode(), workloads.Names())
	return s.Serve(ctx, l, *drain)
}

// listScenarios prints the built-in scenario names and registered
// workloads.
func listScenarios(cfg experiments.Config, asJSON bool) error {
	defs := experiments.BuiltinScenarios(cfg)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]interface{}{
			"scenarios": defs,
			"sweeps":    experiments.BuiltinSweepNames(),
			"workloads": workloads.Names(),
		})
	}
	fmt.Println("built-in scenarios (usable as `run -scenario <name>` or as a spec's \"base\"):")
	for _, n := range experiments.BuiltinNames() {
		s, err := defs[n].Normalize()
		if err != nil {
			return err
		}
		extra := ""
		if s.AllocWorkload != "" {
			extra = fmt.Sprintf(", alloc from %s", s.AllocWorkload)
		}
		if s.Migration {
			extra += ", migration"
		}
		fmt.Printf("  %-16s %s partition of %s%s\n", n, s.Partition, s.Workload, extra)
	}
	fmt.Printf("built-in sweeps (usable as `sweep -spec <name>`): %v\n", experiments.BuiltinSweepNames())
	fmt.Printf("registered workloads: %v\n", workloads.Names())
	return nil
}
