// Package platform assembles and drives one CAKE tile (Stravers &
// Hoogerbrugge, VLSI-TSA 2001; Figure 1 of the paper): N VLIW processors
// with private L1 caches, a shared partitionable unified L2, a snooping
// interconnect and interleaved memory banks, all executing one YAPI
// application under the rtos scheduler.
//
// The engine is execution-driven and cycle-approximate: tasks run as
// cooperative goroutines whose every load, store and instruction fetch is
// charged through the cache hierarchy at the local time of the processor
// executing them. The engine always advances the runnable processor with
// the smallest local clock, so cross-processor event ordering is accurate
// to within one scheduling quantum.
package platform

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/kpn"
	"repro/internal/mem"
	"repro/internal/rtos"
	"repro/internal/trace"
)

// Engine selects the execution engine's access-charging path.
type Engine uint8

// Execution engines. Both produce bit-identical results — statistics,
// per-entity misses, makespan, CPI, energy, bus traffic — which the
// differential tests in internal/platform and internal/experiments
// enforce; EngineWordExact exists as the reference oracle and for
// debugging the fast path.
const (
	// EngineLineMerged (the default) coalesces each task's consecutive
	// same-line accesses through a per-task line register and commits
	// them to the hierarchy in batched calls. Exact by the strict-handoff
	// argument: nothing can touch a core's L1 between two consecutive
	// accesses of the task running on it.
	EngineLineMerged Engine = iota
	// EngineWordExact charges every access individually through the full
	// hierarchy walk, word by word.
	EngineWordExact
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == EngineWordExact {
		return "word"
	}
	return "merged"
}

// ParseEngine resolves the CLI spelling of an engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "merged", "":
		return EngineLineMerged, nil
	case "word":
		return EngineWordExact, nil
	}
	return 0, fmt.Errorf("platform: unknown execution engine %q (want merged or word)", s)
}

// Config describes a tile. The memory system is a declarative
// cache.Topology — a validated tree of cache levels from the CPU-side
// leaves to the shared root — instead of a hard-wired L1+L2 pair; the
// classic two-level tile is cache.TwoLevel, which Default uses.
type Config struct {
	NumCPUs int
	BaseCPI float64
	// Topology is the memory-hierarchy tree (leaf to root). Its resolved
	// partition level is where OS partition tables install, where the
	// profiler taps by default, and whose statistics RunResult.L2
	// reports.
	Topology cache.Topology
	Bus      bus.Config
	Sched    rtos.SchedConfig

	// SwitchTouches is the number of run-time-system data words touched
	// on every task switch (scheduler state, translation tables), which
	// is what makes the rt-data/rt-bss rows of Tables 1 and 2 matter.
	SwitchTouches int

	// Engine selects the execution engine: the exact line-merged fast
	// path (zero value) or the word-granular reference oracle.
	Engine Engine
}

// Default returns the experimental platform of section 5: four
// TriMedia-class processors, 512 KB 4-way L2 with 64 B lines, and private
// 16 KB 4-way L1s — the compatibility two-level topology.
func Default() Config {
	return Config{
		NumCPUs: 4,
		BaseCPI: 1.0,
		Topology: cache.TwoLevel(
			cache.Config{Name: "l1", Sets: 64, Ways: 4, LineSize: 64},
			cache.Config{Name: "l2", Sets: 2048, Ways: 4, LineSize: 64},
			0, 11),
		Bus:   bus.DefaultConfig(),
		Sched: rtos.DefaultSchedConfig(),

		SwitchTouches: 32,
	}
}

// PartitionGeom returns the geometry of the topology's partition level —
// the shared cache the allocator budgets, the profiler taps and the
// partition tables install at.
func (c Config) PartitionGeom() cache.Config {
	return c.Topology.Partition().Config()
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumCPUs <= 0 {
		return fmt.Errorf("platform: %d CPUs", c.NumCPUs)
	}
	if c.BaseCPI <= 0 || math.IsNaN(c.BaseCPI) || math.IsInf(c.BaseCPI, 1) {
		return fmt.Errorf("platform: base CPI %v not finite and positive", c.BaseCPI)
	}
	if err := c.Topology.Validate(c.NumCPUs); err != nil {
		return err
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if c.Engine > EngineWordExact {
		return fmt.Errorf("platform: unknown engine %d", c.Engine)
	}
	return c.Sched.Validate()
}

// Platform is one assembled tile.
type Platform struct {
	cfg   Config
	as    *mem.AddressSpace
	cores []*cpu.Core
	tree  *cache.Tree
	bus   *bus.Bus
	hiers []*cache.Hierarchy
	sched *rtos.Scheduler
	arena *arena.Arena

	rtData *mem.Region
	rtBSS  *mem.Region
	rtOff  uint64
}

// arenaPool recycles per-simulation arenas across platform instances:
// a batch sweep assembles thousands of short-lived tiles, and reusing
// each arena's slabs makes the per-simulation state block
// allocation-free in steady state. Release returns a platform's arena
// here; error paths deliberately do not (a killed task goroutine may
// still reference arena memory, so a possibly-referenced arena is left
// to the garbage collector instead of being recycled).
var arenaPool = sync.Pool{New: func() any { return arena.New() }}

// New assembles a tile over an existing address space (the application's
// regions live there). rtData and rtBSS are the run-time system's shared
// sections; they may be nil, disabling OS memory traffic.
//
// Every simulation builds its own cache tree; the per-simulation state
// — cache line state, entity counters, the tasks' line-register files —
// comes from a pooled bump arena that Release recycles.
func New(cfg Config, as *mem.AddressSpace, rtData, rtBSS *mem.Region) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, as: as, rtData: rtData, rtBSS: rtBSS}
	p.bus = bus.New(cfg.Bus)
	p.arena = arenaPool.Get().(*arena.Arena)
	tree, err := cfg.Topology.Build(cfg.NumCPUs, p.arena)
	if err != nil {
		return nil, err
	}
	p.tree = tree
	for k := 0; k < tree.NumLevels(); k++ {
		for _, c := range tree.LevelCaches(k) {
			c.PresizeRegions(as.NumRegions(), p.arena)
		}
	}
	// Precompute private-level cacheability per region: the hierarchy
	// consults it on every single access, and resolving region + kind
	// through the address space there is measurable on the hot path.
	// Regions are all allocated before the platform is assembled, so a
	// dense table indexed by region id suffices (ids past the table are
	// conservative bypass, matching the nil-region behavior of the
	// closure it replaces).
	privOK := arena.Make[bool](p.arena, as.NumRegions())
	for _, r := range as.Regions() {
		privOK[r.ID] = !r.Kind.Shared()
	}
	privCacheable := func(id mem.RegionID) bool {
		return id >= 0 && int(id) < len(privOK) && privOK[id]
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		core := cpu.New(cpu.Config{ID: i, Name: fmt.Sprintf("cpu%d", i), BaseCPI: cfg.BaseCPI})
		h := tree.Hierarchy(i, p.bus)
		h.PrivCacheable = privCacheable
		h.RegionOf = as.FindID
		p.cores = append(p.cores, core)
		p.hiers = append(p.hiers, h)
	}
	sched, err := rtos.NewScheduler(cfg.Sched, p.cores)
	if err != nil {
		return nil, err
	}
	p.sched = sched
	return p, nil
}

// Cores returns the tile's processors.
func (p *Platform) Cores() []*cpu.Core { return p.cores }

// L2 returns the partition level's shared cache — the cache the OS
// partitions, the profiler taps by default and RunResult.L2 reports
// (named for the classic two-level tile, where it is the L2).
func (p *Platform) L2() *cache.Cache { return p.tree.PartitionCache() }

// L1 returns processor i's leaf cache when the topology's leaf level is
// below the first shared level (private or cluster scope), else nil.
func (p *Platform) L1(i int) *cache.Cache { return p.hiers[i].Leaf() }

// SharedCache resolves a named shared-scope level's cache; the empty
// name selects the partition level.
func (p *Platform) SharedCache(name string) (*cache.Cache, error) {
	return p.tree.SharedCache(name)
}

// Bus returns the interconnect.
func (p *Platform) Bus() *bus.Bus { return p.bus }

// Scheduler returns the run-time system scheduler.
func (p *Platform) Scheduler() *rtos.Scheduler { return p.sched }

// AddressSpace returns the simulated address space.
func (p *Platform) AddressSpace() *mem.AddressSpace { return p.as }

// AddTask registers a task with a static processor assignment and stamps
// it with the configured execution engine (tasks must be added before the
// run starts for the stamp to take effect).
func (p *Platform) AddTask(proc *kpn.Process, cpuIdx int) error {
	proc.WordExact = p.cfg.Engine == EngineWordExact
	proc.MaxLeafSets = p.tree.MaxLeafSets()
	proc.Arena = p.arena
	return p.sched.Add(proc, cpuIdx)
}

// Release returns the platform's arena to the pool for the next
// simulation. Call it only after the run completed successfully and
// every result has been copied out of the platform: the caches' line
// state, entity counters and the tasks' line-register files all live in
// the arena, and the platform must not be used afterwards. Skipping
// Release is always safe (the arena is garbage-collected); core.RunApp
// skips it on error paths, where killed task goroutines may still hold
// arena references.
func (p *Platform) Release() {
	a := p.arena
	if a == nil {
		return
	}
	p.arena = nil
	a.Reset()
	arenaPool.Put(a)
}

// InstallAllocation installs a partition table at the topology's
// partition level (flushing that cache), or reverts to the conventional
// shared cache when a is nil.
func (p *Platform) InstallAllocation(a *rtos.CacheAllocation) {
	pc := p.tree.PartitionCache()
	if a == nil {
		pc.SetPartitionTable(nil)
		return
	}
	pc.SetPartitionTable(a.Table)
}

// RunResult summarizes one application execution.
type RunResult struct {
	Makespan    uint64 // max local time over processors
	TotalInstrs uint64
	L2          cache.Stats
	BusStats    bus.Stats
	CPIs        []float64
	Switches    uint64
}

// CPIMean returns the arithmetic mean of the per-processor CPIs, skipping
// processors that retired no instructions.
func (r RunResult) CPIMean() float64 {
	var sum float64
	n := 0
	for _, c := range r.CPIs {
		if c > 0 {
			sum += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run starts every task and drives the system until all tasks finish.
// maxCycles bounds any single processor's local clock as a runaway guard.
func (p *Platform) Run(maxCycles uint64) (*RunResult, error) {
	for _, t := range p.sched.Tasks() {
		if t.State() == kpn.Created {
			t.Start()
		}
	}
	for !p.sched.AllDone() {
		ci := p.pickCPU()
		if ci < 0 {
			summary := p.blockedSummary()
			p.teardown()
			return nil, fmt.Errorf("platform: deadlock: %s", summary)
		}
		core := p.cores[ci]
		task := p.sched.PickNext(ci)
		p.noteRunWithOSTraffic(task, ci)
		y := task.RunSlice(core, p.hiers[ci], p.cfg.Sched.Quantum)
		p.sched.NoteYield(core)
		if y.Reason == kpn.YieldFailed {
			p.teardown()
			return nil, fmt.Errorf("platform: task %q failed: %w", task.Name, y.Err)
		}
		if core.Now() > maxCycles {
			p.teardown()
			return nil, fmt.Errorf("platform: cpu%d exceeded %d cycles", ci, maxCycles)
		}
	}
	if f := p.sched.AnyFailed(); f != nil {
		return nil, fmt.Errorf("platform: task %q failed: %w", f.Name, f.LastYield().Err)
	}
	return p.result(), nil
}

// pickCPU returns the runnable processor with the smallest local clock,
// or -1 when none is runnable.
func (p *Platform) pickCPU() int {
	best := -1
	for i, core := range p.cores {
		if !p.sched.HasRunnable(i) {
			continue
		}
		if best < 0 || core.Now() < p.cores[best].Now() {
			best = i
		}
	}
	return best
}

// noteRunWithOSTraffic commits the scheduling decision and, when the CPU
// actually switched tasks, models the run-time system touching its
// scheduler state and translation tables in rt-data/rt-bss.
func (p *Platform) noteRunWithOSTraffic(task *kpn.Process, ci int) bool {
	core := p.cores[ci]
	before := p.sched.Switches()
	p.sched.NoteRun(task, ci)
	switched := p.sched.Switches() != before
	if switched && p.cfg.SwitchTouches > 0 {
		h := p.hiers[ci]
		n := uint64(p.cfg.SwitchTouches)
		for i := uint64(0); i < n; i++ {
			if p.rtData != nil {
				if off, ok := rtOffset(p.rtOff+i*4, p.rtData.Size); ok {
					h.AccessAt(trace.Access{Addr: p.rtData.Base + off, Size: 4,
						Op: trace.Read, Region: p.rtData.ID}, core.Now())
				}
			}
			if p.rtBSS != nil && i%2 == 0 {
				if off, ok := rtOffset(p.rtOff+i*8, p.rtBSS.Size); ok {
					h.AccessAt(trace.Access{Addr: p.rtBSS.Base + off, Size: 4,
						Op: trace.Write, Region: p.rtBSS.ID}, core.Now())
				}
			}
		}
		p.rtOff += 64
	}
	return switched
}

// rtOffset folds a rolling cursor into an rt section so a 4-byte word at
// the returned offset stays in bounds. Sections of exactly one word pin
// the cursor to 0 (the naive modulo would divide by zero); sections too
// small for a word skip the access.
func rtOffset(cursor, size uint64) (uint64, bool) {
	if size < 4 {
		return 0, false
	}
	if size == 4 {
		return 0, true
	}
	return cursor % (size - 4), true
}

func (p *Platform) result() *RunResult {
	r := &RunResult{
		L2:       p.tree.PartitionCache().Stats(),
		BusStats: p.bus.Stats(),
		Switches: p.sched.Switches(),
	}
	for _, c := range p.cores {
		if c.Now() > r.Makespan {
			r.Makespan = c.Now()
		}
		r.TotalInstrs += c.Instructions()
		r.CPIs = append(r.CPIs, c.CPI())
	}
	return r
}

// teardown kills remaining task goroutines after an aborted run.
func (p *Platform) teardown() {
	for _, t := range p.sched.Tasks() {
		t.Kill()
	}
}

func (p *Platform) blockedSummary() string {
	s := ""
	for _, t := range p.sched.Tasks() {
		if t.State() == kpn.Blocked {
			on := "?"
			if y := t.LastYield(); y.On != nil {
				on = y.On.Name
			}
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s on %s", t.Name, on)
		}
	}
	if s == "" {
		return "no blocked tasks"
	}
	return s
}
