// Package scenario is the declarative experiment surface of the
// reproduction: a Scenario is a JSON-(de)serializable spec naming a
// registered workload, a platform geometry, engines, a solver and a
// partition policy; a Runner validates specs and executes batches over
// the bounded worker pool with content-addressed memoization (identical
// specs — and identical pipeline stages across different specs —
// simulate once); a Result is the structured, versioned document every
// table and figure of the evaluation is derived from.
//
// Scenarios are data, not Go functions: new workload mixes, geometries
// and policies are defined in JSON (or constructed programmatically),
// batched through Runner.RunBatch, and served over HTTP by the
// `compmem serve` mode, without touching the harness.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// SpecVersion is the current Scenario spec version.
const SpecVersion = 1

// Partition policies: how far down the paper's pipeline a scenario runs.
const (
	// PartitionOptimized is the full study (the default): shared
	// baseline run, profile + optimize, partitioned run, and the
	// expected-vs-simulated compositionality comparison.
	PartitionOptimized = "optimized"
	// PartitionShared runs only the shared-cache baseline.
	PartitionShared = "shared"
	// PartitionOptimize profiles and solves for an allocation but runs
	// no measured executions (the granularity ablation needs exactly
	// this).
	PartitionOptimize = "optimize"
	// PartitionProfile only profiles the per-entity miss curves.
	PartitionProfile = "profile"
)

var partitionPolicies = []string{PartitionOptimized, PartitionShared, PartitionOptimize, PartitionProfile}

// Scenario is one serializable experiment spec. The zero value of every
// optional field means "the harness default", so minimal specs stay
// minimal; Normalize fills the canonical values in.
type Scenario struct {
	// SpecVersion is the spec schema version; 0 means current.
	SpecVersion int `json:"spec_version,omitempty"`
	// Name labels the scenario in listings and results. It does not
	// affect the simulation (two scenarios differing only in Name share
	// one content address).
	Name string `json:"name,omitempty"`
	// Base names a built-in scenario this spec overlays: omitted fields
	// inherit the base's values. Resolved by Resolve before Normalize.
	Base string `json:"base,omitempty"`

	// Workload names a registered workload (see internal/workloads
	// Register/Names).
	Workload string `json:"workload"`
	// Scale is "small" or "paper" (default).
	Scale string `json:"scale,omitempty"`
	// Seed perturbs the workload's synthetic input data; 0 is the
	// canonical paper workload.
	Seed uint64 `json:"seed,omitempty"`
	// Platform overrides the section 5 tile geometry; nil keeps it.
	Platform *PlatformSpec `json:"platform,omitempty"`

	// Partition selects the pipeline policy: "optimized" (default),
	// "shared", "optimize" or "profile".
	Partition string `json:"partition,omitempty"`
	// Runs is the number of jittered profiling repetitions averaged
	// into the miss curves; default 2, at most core.MaxProfileRuns.
	Runs int `json:"runs,omitempty"`
	// Solver accepts "mckp" (default) or "ilp" and normalizes to
	// "mckp": both solve the section 3.2 program exactly, with optimal
	// costs the oracle test proves equal, so a solver twin shares its
	// MCKP twin's content key and every stage key (and, where several
	// allocations tie at the optimum, gets the MCKP one). The ILP itself
	// is reachable through core.OptimizeConfig.Solver.
	Solver string `json:"solver,omitempty"`
	// ProfileEngine accepts "stackdist" (default) or "bank" and
	// normalizes to "stackdist": the bank-of-caches oracle returns
	// bit-identical curves, so a spec naming it describes the same
	// experiment. The oracle itself is reachable through
	// core.OptimizeConfig.Engine, which the differential tests use.
	ProfileEngine string `json:"profile_engine,omitempty"`
	// ProfileLevel names the shared hierarchy level whose miss curves
	// the profiler measures; empty means the partition level. The
	// allocation budget always comes from the partition level.
	ProfileLevel string `json:"profile_level,omitempty"`
	// ExecEngine accepts "merged" (default) or "word" and normalizes to
	// "merged": the word-granular oracle is bit-identical, so an engine
	// twin shares its production twin's content key and every stage key.
	// The oracle itself is reachable through platform.Config.Engine.
	ExecEngine string `json:"exec_engine,omitempty"`
	// Sizes restricts the candidate partition sizes (allocation units,
	// powers of two, in any order and with repeats allowed: the
	// normalized list is sorted and distinct); nil or empty means the
	// default 1..128 ladder.
	Sizes []int `json:"sizes,omitempty"`
	// Migration enables dynamic scheduling with task migration for the
	// measured shared/partitioned executions. Profiling runs always use
	// static scheduling — the regime the paper's model covers.
	Migration bool `json:"migration,omitempty"`
	// AllocWorkload, for the "optimized" policy, borrows the partitioned
	// run's allocation from optimizing this workload instead of the
	// scenario's own — the compositionality ablation validates a solo
	// task under the full application's allocation this way.
	AllocWorkload string `json:"alloc_workload,omitempty"`
	// Trace accepts "replay" (default) or "live" and normalizes to the
	// empty string: every pipeline stage replays the workload's recorded
	// access-stream trace, captured once per (workload, scale, seed) by
	// the trace stage and persisted through the store layers. Replay is
	// bit-identical to re-running the functional applications (the
	// differential tests in internal/experiments prove it on core), so a
	// live spec shares its replay twin's content key and every stage key.
	Trace string `json:"trace,omitempty"`
}

// Trace spellings Normalize accepts (Scenario.Trace); both normalize to
// the empty string.
const (
	TraceReplay = "replay"
	TraceLive   = "live"
)

// CacheSpec overrides a cache geometry. Fields are pointers so that an
// explicit zero is distinguishable from "field absent": absent (nil)
// keeps the default, while a deliberate `"ways": 0` is applied verbatim
// and fails validation naming the field — it no longer silently means
// "default".
type CacheSpec struct {
	Sets     *int `json:"sets,omitempty"`
	Ways     *int `json:"ways,omitempty"`
	LineSize *int `json:"line_size,omitempty"`
}

func (c CacheSpec) empty() bool { return c.Sets == nil && c.Ways == nil && c.LineSize == nil }

func (c CacheSpec) apply(base cache.Config) cache.Config {
	if c.Sets != nil {
		base.Sets = *c.Sets
	}
	if c.Ways != nil {
		base.Ways = *c.Ways
	}
	if c.LineSize != nil {
		base.LineSize = *c.LineSize
	}
	return base
}

// BusSpec overrides the interconnect; absent (nil) fields keep the
// default.
type BusSpec struct {
	TransferCycles *uint64 `json:"transfer_cycles,omitempty"`
	MemLatency     *uint64 `json:"mem_latency,omitempty"`
	Banks          *int    `json:"banks,omitempty"`
	LineSize       *int    `json:"line_size,omitempty"`
}

func (b BusSpec) apply(base bus.Config) bus.Config {
	if b.TransferCycles != nil {
		base.TransferCycles = *b.TransferCycles
	}
	if b.MemLatency != nil {
		base.MemLatency = *b.MemLatency
	}
	if b.Banks != nil {
		base.Banks = *b.Banks
	}
	if b.LineSize != nil {
		base.LineSize = *b.LineSize
	}
	return base
}

// SchedSpec overrides the scheduler; absent (nil) fields keep the
// default (an explicit 0 switch_cost is a real zero-cost switch).
type SchedSpec struct {
	Quantum    *int64  `json:"quantum,omitempty"`
	SwitchCost *uint64 `json:"switch_cost,omitempty"`
}

// HierarchyVersion is the current version of the hierarchy block.
const HierarchyVersion = 1

// LevelSpec is one level of a declarative memory-hierarchy block, leaf
// to root. Absent fields inherit a seed: a level named "l1" or "l2"
// seeds from the section 5 default of that name; any other level seeds
// from the default L1 (private scope) or L2 (shared/cluster scope)
// geometry. The legacy top-level "l1"/"l2" alias specs overlay the
// equally-named levels before the level's own fields apply.
type LevelSpec struct {
	Name string `json:"name"`
	// Scope is "private", "shared" or "cluster:N"; it defaults to
	// "shared" for the last (root) level and "private" otherwise.
	Scope      string  `json:"scope,omitempty"`
	Sets       *int    `json:"sets,omitempty"`
	Ways       *int    `json:"ways,omitempty"`
	LineSize   *int    `json:"line_size,omitempty"`
	HitLatency *uint64 `json:"hit_latency,omitempty"`
	// Partition marks the level partition tables install at and the
	// profiler taps by default (at most one; default: the root).
	Partition *bool `json:"partition,omitempty"`
	// PerCPU overrides individual CPUs' instance geometries on
	// private-scope levels; keys are decimal CPU indices.
	PerCPU map[string]CacheSpec `json:"per_cpu,omitempty"`
}

// HierarchySpec is the versioned memory-hierarchy block of a platform
// spec: an N-level, topology-aware cache tree replacing the hard-coded
// L1+L2 pair. When absent, the platform keeps the default two-level
// tree (overlaid by the legacy l1/l2 alias fields).
type HierarchySpec struct {
	Version int         `json:"version,omitempty"`
	Levels  []LevelSpec `json:"levels"`
}

// PlatformSpec is the serializable platform geometry. Absent fields
// keep the section 5 default (platform.Default()), so a custom geometry
// only names what it changes — e.g. {"num_cpus": 8}; explicit zeros are
// applied verbatim and rejected by validation naming the field.
type PlatformSpec struct {
	NumCPUs *int     `json:"num_cpus,omitempty"`
	BaseCPI *float64 `json:"base_cpi,omitempty"`
	// Hierarchy declares an arbitrary cache topology; nil keeps the
	// default private-L1 + shared-L2 pair.
	Hierarchy *HierarchySpec `json:"hierarchy,omitempty"`
	// L1/L2 and the hit latencies are the legacy two-level spelling,
	// kept as aliases: they overlay the hierarchy levels named "l1" and
	// "l2" (whether from the default tree or a hierarchy block).
	L1            CacheSpec `json:"l1,omitzero"`
	L2            CacheSpec `json:"l2,omitzero"`
	L1HitLatency  *uint64   `json:"l1_hit_latency,omitempty"`
	L2HitLatency  *uint64   `json:"l2_hit_latency,omitempty"`
	Bus           BusSpec   `json:"bus,omitzero"`
	Sched         SchedSpec `json:"sched,omitzero"`
	SwitchTouches *int      `json:"switch_touches,omitempty"`
}

// applyAlias overlays the legacy l1/l2 alias fields onto the levels of
// the same name.
func (p PlatformSpec) applyAlias(l *cache.LevelSpec) {
	switch l.Name {
	case "l1":
		g := p.L1.apply(l.Config())
		l.Sets, l.Ways, l.LineSize = g.Sets, g.Ways, g.LineSize
		if p.L1HitLatency != nil {
			l.HitLat = *p.L1HitLatency
		}
	case "l2":
		g := p.L2.apply(l.Config())
		l.Sets, l.Ways, l.LineSize = g.Sets, g.Ways, g.LineSize
		if p.L2HitLatency != nil {
			l.HitLat = *p.L2HitLatency
		}
	}
}

// materializeLevel resolves one hierarchy-block level: seed defaults,
// the level's own fields, then the legacy alias overlay (the aliases
// are the outermost override, so a spec overlaying a base's canonical —
// fully explicit — hierarchy block through the l1/l2 shorthand still
// takes effect).
func (p PlatformSpec) materializeLevel(ls LevelSpec, last bool, def cache.Topology) (cache.LevelSpec, error) {
	if ls.Name == "" {
		return cache.LevelSpec{}, fmt.Errorf("scenario: hierarchy level without a name")
	}
	scope := ls.Scope
	if scope == "" {
		scope = cache.ScopePrivate
		if last {
			scope = cache.ScopeShared
		}
	}
	var seed cache.LevelSpec
	if i := def.Index(ls.Name); i >= 0 {
		seed = def.Levels[i]
	} else if scope == cache.ScopePrivate {
		seed = def.Levels[0]
	} else {
		seed = def.Levels[len(def.Levels)-1]
	}
	lvl := cache.LevelSpec{
		Name: ls.Name, Scope: scope,
		Sets: seed.Sets, Ways: seed.Ways, LineSize: seed.LineSize, HitLat: seed.HitLat,
	}
	if ls.Sets != nil {
		lvl.Sets = *ls.Sets
	}
	if ls.Ways != nil {
		lvl.Ways = *ls.Ways
	}
	if ls.LineSize != nil {
		lvl.LineSize = *ls.LineSize
	}
	if ls.HitLatency != nil {
		lvl.HitLat = *ls.HitLatency
	}
	if ls.Partition != nil {
		lvl.Partition = *ls.Partition
	}
	p.applyAlias(&lvl)
	if len(ls.PerCPU) > 0 {
		lvl.PerCPU = make(map[int]cache.Geometry, len(ls.PerCPU))
		for key, cs := range ls.PerCPU {
			cpu, err := strconv.Atoi(key)
			if err != nil || cpu < 0 {
				return lvl, fmt.Errorf("scenario: level %q: per_cpu key %q is not a CPU index", ls.Name, key)
			}
			var g cache.Geometry
			for _, f := range []struct {
				name string
				src  *int
				dst  *int
			}{{"sets", cs.Sets, &g.Sets}, {"ways", cs.Ways, &g.Ways}, {"line_size", cs.LineSize, &g.LineSize}} {
				if f.src == nil {
					continue
				}
				if *f.src <= 0 {
					return lvl, fmt.Errorf("scenario: level %q per_cpu %d: %s %d not positive", ls.Name, cpu, f.name, *f.src)
				}
				*f.dst = *f.src
			}
			lvl.PerCPU[cpu] = g
		}
	}
	return lvl, nil
}

// topology materializes the spec's memory hierarchy.
func (p PlatformSpec) topology() (cache.Topology, error) {
	def := platform.Default().Topology
	if p.Hierarchy == nil {
		t := def.Clone()
		for i := range t.Levels {
			p.applyAlias(&t.Levels[i])
		}
		return t, nil
	}
	hs := p.Hierarchy
	if hs.Version != 0 && hs.Version != HierarchyVersion {
		return cache.Topology{}, fmt.Errorf("scenario: unsupported hierarchy version %d (current %d)", hs.Version, HierarchyVersion)
	}
	if len(hs.Levels) == 0 {
		return cache.Topology{}, fmt.Errorf("scenario: hierarchy block declares no levels")
	}
	var t cache.Topology
	for i, ls := range hs.Levels {
		lvl, err := p.materializeLevel(ls, i == len(hs.Levels)-1, def)
		if err != nil {
			return t, err
		}
		t.Levels = append(t.Levels, lvl)
	}
	// A legacy alias that names no level of the block would silently
	// vanish — and sweep axes built on the aliases would label points
	// with geometry that never ran. Fail loudly instead.
	if (!p.L1.empty() || p.L1HitLatency != nil) && t.Index("l1") < 0 {
		return t, fmt.Errorf("scenario: l1 alias override set, but the hierarchy block has no level named \"l1\" (levels: %v)", t.LevelNames())
	}
	if (!p.L2.empty() || p.L2HitLatency != nil) && t.Index("l2") < 0 {
		return t, fmt.Errorf("scenario: l2 alias override set, but the hierarchy block has no level named \"l2\" (levels: %v)", t.LevelNames())
	}
	return t, nil
}

// Config materializes the spec over the default tile.
func (p PlatformSpec) Config() (platform.Config, error) {
	pc := platform.Default()
	if p.NumCPUs != nil {
		pc.NumCPUs = *p.NumCPUs
	}
	if p.BaseCPI != nil {
		pc.BaseCPI = *p.BaseCPI
	}
	topo, err := p.topology()
	if err != nil {
		return pc, err
	}
	pc.Topology = topo
	pc.Bus = p.Bus.apply(pc.Bus)
	if p.Sched.Quantum != nil {
		pc.Sched.Quantum = *p.Sched.Quantum
	}
	if p.Sched.SwitchCost != nil {
		pc.Sched.SwitchCost = *p.Sched.SwitchCost
	}
	if p.SwitchTouches != nil {
		pc.SwitchTouches = *p.SwitchTouches
	}
	return pc, nil
}

func iptr(v int) *int           { return &v }
func i64ptr(v int64) *int64     { return &v }
func u64ptr(v uint64) *uint64   { return &v }
func f64ptr(v float64) *float64 { return &v }
func bptr(v bool) *bool         { return &v }

// PlatformSpecOf captures an assembled platform.Config as a spec — the
// inverse of PlatformSpec.Config. Every field is written explicitly
// (the topology as a fully-resolved hierarchy block), so the round trip
// is exact for any valid configuration; this is the canonical form
// Normalize stores and the content addresses hash.
func PlatformSpecOf(pc platform.Config) PlatformSpec {
	hs := &HierarchySpec{Version: HierarchyVersion}
	for _, l := range pc.Topology.Levels {
		ls := LevelSpec{
			Name:       l.Name,
			Scope:      l.Scope,
			Sets:       iptr(l.Sets),
			Ways:       iptr(l.Ways),
			LineSize:   iptr(l.LineSize),
			HitLatency: u64ptr(l.HitLat),
			Partition:  bptr(l.Partition),
		}
		if len(l.PerCPU) > 0 {
			ls.PerCPU = make(map[string]CacheSpec, len(l.PerCPU))
			for cpu, g := range l.PerCPU {
				var cs CacheSpec
				if g.Sets != 0 {
					cs.Sets = iptr(g.Sets)
				}
				if g.Ways != 0 {
					cs.Ways = iptr(g.Ways)
				}
				if g.LineSize != 0 {
					cs.LineSize = iptr(g.LineSize)
				}
				ls.PerCPU[strconv.Itoa(cpu)] = cs
			}
		}
		hs.Levels = append(hs.Levels, ls)
	}
	return PlatformSpec{
		NumCPUs:   iptr(pc.NumCPUs),
		BaseCPI:   f64ptr(pc.BaseCPI),
		Hierarchy: hs,
		Bus: BusSpec{
			TransferCycles: u64ptr(pc.Bus.TransferCycles),
			MemLatency:     u64ptr(pc.Bus.MemLatency),
			Banks:          iptr(pc.Bus.Banks),
			LineSize:       iptr(pc.Bus.LineSize),
		},
		Sched:         SchedSpec{Quantum: i64ptr(pc.Sched.Quantum), SwitchCost: u64ptr(pc.Sched.SwitchCost)},
		SwitchTouches: iptr(pc.SwitchTouches),
	}
}

// Normalize validates the spec and returns its canonical form: every
// defaultable field filled with its canonical value, enum spellings
// canonicalized, sizes sorted, both engine fields set to the production
// engines and the trace mode cleared (the exact oracles, and a live
// functional run, compute identical results).
// Two specs describing the same experiment normalize identically, which
// is what makes content addressing work.
func (s Scenario) Normalize() (Scenario, error) {
	n := s
	switch n.SpecVersion {
	case 0:
		n.SpecVersion = SpecVersion
	case SpecVersion:
	default:
		return n, fmt.Errorf("scenario: unsupported spec_version %d (current %d)", n.SpecVersion, SpecVersion)
	}
	if n.Base != "" {
		return n, fmt.Errorf("scenario: unresolved base %q (resolve built-in bases before Normalize)", n.Base)
	}
	if n.Workload == "" {
		return n, fmt.Errorf("scenario: missing workload (registered: %v)", workloads.Names())
	}
	if _, ok := workloads.Lookup(n.Workload); !ok {
		return n, fmt.Errorf("scenario: unknown workload %q (registered: %v)", n.Workload, workloads.Names())
	}
	scale, err := workloads.ParseScale(n.Scale)
	if err != nil {
		return n, err
	}
	n.Scale = scale.String()

	if n.Partition == "" {
		n.Partition = PartitionOptimized
	}
	valid := false
	for _, p := range partitionPolicies {
		if n.Partition == p {
			valid = true
			break
		}
	}
	if !valid {
		return n, fmt.Errorf("scenario: unknown partition policy %q (want one of %v)", n.Partition, partitionPolicies)
	}
	if n.AllocWorkload != "" {
		if n.Partition != PartitionOptimized {
			return n, fmt.Errorf("scenario: alloc_workload only applies to the %q partition policy (got %q)", PartitionOptimized, n.Partition)
		}
		if _, ok := workloads.Lookup(n.AllocWorkload); !ok {
			return n, fmt.Errorf("scenario: unknown alloc_workload %q (registered: %v)", n.AllocWorkload, workloads.Names())
		}
	}

	switch n.Trace {
	case "", TraceReplay, TraceLive:
		n.Trace = ""
	default:
		return n, fmt.Errorf("scenario: unknown trace mode %q (want %q or %q)", n.Trace, TraceReplay, TraceLive)
	}

	if n.Runs == 0 {
		n.Runs = 2
	}
	if n.Runs < 0 {
		return n, fmt.Errorf("scenario: runs %d not positive", n.Runs)
	}
	if n.Runs > core.MaxProfileRuns {
		return n, fmt.Errorf("scenario: runs %d above %d, the number of distinct profiling repetitions", n.Runs, core.MaxProfileRuns)
	}
	if _, err := core.ParseSolver(n.Solver); err != nil {
		return n, err
	}
	n.Solver = core.SolverMCKP.String()
	if _, err := profile.ParseEngine(n.ProfileEngine); err != nil {
		return n, err
	}
	n.ProfileEngine = profile.EngineStackDist.String()
	if _, err := platform.ParseEngine(n.ExecEngine); err != nil {
		return n, err
	}
	n.ExecEngine = platform.EngineLineMerged.String()

	if len(n.Sizes) == 0 {
		n.Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128}
	} else {
		n.Sizes = append([]int(nil), n.Sizes...)
		slices.Sort(n.Sizes)
		n.Sizes = slices.Compact(n.Sizes) // a repeated size is no extra candidate
		for _, v := range n.Sizes {
			if v <= 0 || v&(v-1) != 0 {
				return n, fmt.Errorf("scenario: candidate size %d not a positive power of two", v)
			}
		}
	}

	if n.Platform == nil {
		n.Platform = &PlatformSpec{}
	}
	base, err := n.Platform.Config()
	if err != nil {
		return n, err
	}
	full := PlatformSpecOf(base)
	n.Platform = &full
	pc, err := n.Platform.Config()
	if err != nil {
		return n, err
	}
	if err := pc.Validate(); err != nil {
		return n, err
	}
	if n.ProfileLevel != "" {
		i := pc.Topology.Index(n.ProfileLevel)
		if i < 0 {
			return n, fmt.Errorf("scenario: profile_level %q not in the hierarchy (levels: %v)", n.ProfileLevel, pc.Topology.LevelNames())
		}
		if pc.Topology.Levels[i].Scope != cache.ScopeShared {
			return n, fmt.Errorf("scenario: profile_level %q is %s, not shared", n.ProfileLevel, pc.Topology.Levels[i].Scope)
		}
	}
	return n, nil
}

// Key returns the scenario's content address: a hash of the canonical
// JSON of the normalized spec with the non-semantic Name cleared. Two
// scenarios with equal keys simulate identically.
func (s Scenario) Key() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	return n.contentKey(), nil
}

// contentKey hashes a normalized spec into its content address.
func (n Scenario) contentKey() string {
	n.Name = ""
	return hashJSON(n)
}

// hashBufs recycles hashJSON's encoding buffers: every request hashes
// its scenario and stage keys, warm or cold, and keeps only the digest.
var hashBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// hashJSON content-addresses any JSON-marshalable value by the bytes
// json.Marshal would produce.
func hashJSON(v interface{}) string {
	buf := hashBufs.Get().(*bytes.Buffer)
	defer hashBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Every hashed value is a plain struct of scalars, slices and
		// string-keyed maps; marshaling cannot fail.
		panic(fmt.Sprintf("scenario: hashing: %v", err))
	}
	b := buf.Bytes()
	sum := sha256.Sum256(b[:len(b)-1]) // without the newline Encode appends
	return hex.EncodeToString(sum[:16])
}

// DecodeStrict unmarshals raw into v, rejecting unknown fields (the
// error names the offending field) and trailing data. Every spec
// surface of the harness — scenario specs, batch documents, sweep specs
// — decodes through this, so a typo like "migartion" or "l2_kb" fails
// loudly instead of silently running the wrong experiment.
func DecodeStrict(raw []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("unexpected data after the JSON document")
	}
	return nil
}

// SplitSpecs splits a scenario document into its raw specs. Accepted
// shapes: {"scenarios":[spec,...]}, a bare array of specs, or one spec
// object. Both the CLI's -scenario files and the serve batch endpoint
// accept exactly these. A batch document may carry nothing besides
// "scenarios"; the specs themselves are validated strictly by Resolve.
func SplitSpecs(raw []byte) ([]json.RawMessage, error) {
	trimmed := bytes.TrimLeft(raw, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var arr []json.RawMessage
		if err := json.Unmarshal(raw, &arr); err != nil {
			return nil, fmt.Errorf("scenario: parsing spec array: %w", err)
		}
		if len(arr) == 0 {
			return nil, fmt.Errorf("scenario: empty spec array")
		}
		return arr, nil
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("scenario: document is neither a spec object, an array of specs, nor {\"scenarios\":[...]}: %w", err)
	}
	if scen, ok := obj["scenarios"]; ok {
		for k := range obj {
			if k != "scenarios" {
				return nil, fmt.Errorf("scenario: unknown field %q in batch document (a batch carries only \"scenarios\")", k)
			}
		}
		var arr []json.RawMessage
		if err := json.Unmarshal(scen, &arr); err != nil {
			return nil, fmt.Errorf("scenario: parsing \"scenarios\": %w", err)
		}
		// null or [] must fail loudly here: `compmem run` on such a
		// document would otherwise succeed having simulated nothing.
		if len(arr) == 0 {
			return nil, fmt.Errorf("scenario: batch document carries no scenarios")
		}
		return arr, nil
	}
	return []json.RawMessage{raw}, nil
}

// Resolve parses a raw JSON spec, first overlaying it on the built-in
// base it names (if any): fields present in raw override the base,
// omitted fields inherit it. lookupBase maps a base name to its spec and
// may be nil when bases are not supported by the caller. Unknown fields
// in the spec are an error (see DecodeStrict): a typo'd field name must
// not silently decode to a default-valued spec.
func Resolve(raw []byte, lookupBase func(string) (Scenario, bool)) (Scenario, error) {
	var peek struct {
		Base string `json:"base"`
	}
	if err := json.Unmarshal(raw, &peek); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	var s Scenario
	if peek.Base != "" {
		if lookupBase == nil {
			return Scenario{}, fmt.Errorf("scenario: base %q not supported here", peek.Base)
		}
		base, ok := lookupBase(peek.Base)
		if !ok {
			return Scenario{}, fmt.Errorf("scenario: unknown base scenario %q", peek.Base)
		}
		s = base
	}
	if err := DecodeStrict(raw, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	s.Base = ""
	return s, nil
}

// scale returns the parsed workload scale of a normalized spec.
func (s Scenario) scale() workloads.Scale {
	sc, _ := workloads.ParseScale(s.Scale)
	return sc
}

// buildConfig returns the workload build configuration.
func (s Scenario) buildConfig() workloads.BuildConfig {
	return workloads.BuildConfig{Scale: s.scale(), Seed: s.Seed}
}

// optimizeConfig translates a normalized spec into the profiling and
// optimization options, on the production engines and solver (the zero
// values).
func (s Scenario) optimizeConfig() (core.OptimizeConfig, error) {
	pc, err := s.Platform.Config()
	if err != nil {
		return core.OptimizeConfig{}, err
	}
	return core.OptimizeConfig{
		Platform:     pc,
		Sizes:        s.Sizes,
		Runs:         s.Runs,
		ProfileLevel: s.ProfileLevel,
	}, nil
}
