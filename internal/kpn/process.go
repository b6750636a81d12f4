// Package kpn implements the YAPI-style application model of the paper: a
// Kahn process network of parallel tasks communicating through bounded
// FIFOs and frame buffers (de Kock et al., DAC 2000).
//
// Every task runs as a goroutine in strict handoff with the platform
// engine: exactly one task executes at any instant, resumed and yielded
// over private channels, so simulation is deterministic. Task code
// performs all memory traffic through a Ctx, which moves real bytes in
// the simulated address space (internal/mem) and charges cycles through
// the memory hierarchy of the processor the task currently occupies.
package kpn

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Memory is the timing-model side of the memory system; it is implemented
// by cache.Hierarchy and by test stubs.
type Memory interface {
	AccessAt(a trace.Access, now uint64) uint64
}

// NoMemory is the memory system of a functional run whose timing is
// thrown away, such as trace capture: a task resumed with it moves real
// bytes and keeps every bounds check, its recorder sees every operation,
// and Exec advances its core by the instructions alone, but nothing is
// fetched or charged. It is a sentinel of an unexported type, so no
// other Memory (a nil one included) selects the mode.
var NoMemory Memory = noMemory{}

type noMemory struct{}

func (noMemory) AccessAt(trace.Access, uint64) uint64 { return 0 }

// LineMemory extends Memory with the contract of the exact line-merged
// fast path (implemented by cache.Hierarchy). Because tasks run in strict
// handoff — exactly one task executes at any instant — accesses of one
// task to a line it touched before (with no intervening walk into that
// line's private-cache set) are provably served as repeats of the first
// access: L1 hits, or merged bypass bursts. The Ctx tracks such lines in
// a per-set register file, charges repeat latencies as they occur, and
// retires each line's cache-state commit in one CommitRepeats call
// instead of one AccessAt walk per word. Memory implementations without
// these hooks (test stubs) are driven word-granularly, which is also the
// reference-oracle behavior behind Process.WordExact.
type LineMemory interface {
	Memory
	// FastSpec returns the register-file geometry: line shift, number of
	// private-cache sets (0 disables cacheable batching), and the
	// per-repeat latency of the cacheable and bypass repeat classes.
	FastSpec() (shift uint, sets int, hitLat, mergeLat uint64)
	// CacheableLine reports whether the region's lines may live in the
	// private cache (false selects the bypass burst-merge class).
	CacheableLine(region mem.RegionID) bool
	// ChargeLine walks the hierarchy for one single-line access and
	// reports what the register file needs to track residency: the
	// repeat class, whether the private cache filled, and the line a
	// fill evicted (victim line address + 1; 0 = none).
	ChargeLine(lineAddr uint64, write bool, region mem.RegionID, now uint64) (lat uint64, cacheable, filled bool, evicted uint64)
	// CommitRepeats commits reads+writes coalesced repeats of the line in
	// one call, leaving cache state and statistics exactly as the
	// word-granular walk would.
	CommitRepeats(lineAddr uint64, region mem.RegionID, reads, writes uint64, merge bool)
}

// Recorder observes the Ctx-level operation stream of one task — the
// exact vocabulary a recorded trace needs to reproduce the task's
// timing behavior without re-running its computation (internal/tracefile
// implements it for trace capture).
//
// The vocabulary is chosen for bit-exact replay:
//
//   - Exec counts are recorded per call and never coalesced or split:
//     the engine tests the slice budget after every internal step and
//     accumulates fractional cycles, so yield points — and with them the
//     whole schedule — are sensitive to call boundaries.
//   - Instruction fetches are NOT recorded: Exec regenerates them
//     deterministically from the task's code region and hot-code cursor.
//   - FIFO operations are recorded as single events and the buffer
//     traffic inside them is suppressed: replay re-issues the real FIFO
//     operation, which regenerates identical ring-slot traffic, blocking
//     conditions and depth statistics.
//
// All methods are called from the task goroutine, strictly in program
// order.
type Recorder interface {
	RecordExec(n uint64)
	RecordAccess(a trace.Access)
	RecordBulk(region mem.RegionID, off, n uint64, op trace.Op)
	RecordFIFOWrite(f *FIFO)
	RecordFIFORead(f *FIFO, ok bool)
	RecordFIFOClose(f *FIFO)
}

// State enumerates the lifecycle of a process.
type State uint8

// Process states.
const (
	Created State = iota
	Ready
	Running
	Blocked
	Done
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// YieldReason says why a task returned control to the engine.
type YieldReason uint8

// Yield reasons.
const (
	YieldQuantum YieldReason = iota // slice budget exhausted
	YieldBlocked                    // waiting on a FIFO condition
	YieldDone                       // body returned
	YieldFailed                     // body panicked
)

// Yield is the message a task sends back to the engine.
type Yield struct {
	Reason YieldReason
	CanRun func() bool // when Blocked: condition to re-test
	On     *FIFO       // when Blocked: the FIFO waited on (diagnostics)
	Err    error       // when Failed
}

type resumeMsg struct {
	core   *cpu.Core
	mem    Memory
	budget int64
	kill   bool
}

type killSignal struct{}

// ctxLineSize is the instruction-fetch granularity of the execution
// model: one 64 B line of 4 B instruction words.
const ctxLineSize = 64

// Process is one YAPI task.
type Process struct {
	Name string
	Body func(*Ctx)

	// Private sections, allocated by the application builder. Code is
	// required (instruction fetches are modelled); Heap holds the
	// task's tables and scratch arrays; Stack is charged by the Exec
	// model only.
	Code  *mem.Region
	Stack *mem.Region
	Heap  *mem.Region

	// HotCode is the size in bytes of the task's inner-loop footprint;
	// instruction fetches cycle through it. 0 means the whole Code
	// region.
	HotCode uint64

	// WordExact forces the reference oracle: every access is charged
	// word-granularly through a full Memory.AccessAt walk, with no
	// line-run coalescing. Must be set before Start. The platform engine
	// sets it from platform.Config.Engine; differential tests prove the
	// default fast path bit-identical to this path.
	WordExact bool

	// Recorder, when non-nil, observes the task's Ctx-level operation
	// stream (trace capture). Must be set before Start.
	Recorder Recorder

	// MaxLeafSets is a sizing hint: the largest leaf-cache set count the
	// task can encounter on any processor of its platform. When set
	// (platform.AddTask stamps it from the instantiated topology), the
	// line-register file is sized for the largest geometry up front and a
	// resume that hands the task a smaller leaf merely re-slices it —
	// heterogeneous per-CPU geometries no longer reallocate the file on
	// every migration between differently-sized leaves. 0 means unknown:
	// the file grows to each new maximum as geometries are encountered.
	MaxLeafSets int

	// Arena, when non-nil, provides the task's per-simulation mutable
	// state (the line-register file and its dirty list) from the
	// platform's bump arena instead of the heap. platform.AddTask stamps
	// it. Safe despite the arena not being lock-protected: tasks execute
	// in strict handoff (exactly one goroutine of the platform runs at
	// any instant, with channel synchronization between handoffs), so
	// arena access is serialized.
	Arena *arena.Arena

	state  State
	ctx    *Ctx
	resume chan resumeMsg
	yield  chan Yield
	last   Yield
}

// State returns the process state.
func (p *Process) State() State { return p.state }

// LastYield returns the most recent yield message.
func (p *Process) LastYield() Yield { return p.last }

// Ctx returns the process's execution context (valid after Start).
func (p *Process) Ctx() *Ctx { return p.ctx }

// ConsumedCycles returns the execution plus memory-stall cycles this task
// consumed so far — the T_i(z_i) term of the paper's throughput model
// (section 3.1). It excludes switch and idle overhead, which the model
// accounts separately.
func (p *Process) ConsumedCycles() uint64 {
	if p.ctx == nil {
		return 0
	}
	return p.ctx.consumed
}

// Start launches the task goroutine; the task does not execute until the
// first RunSlice.
func (p *Process) Start() {
	if p.state != Created {
		panic(fmt.Sprintf("kpn: Start on process %q in state %v", p.Name, p.state))
	}
	if p.Body == nil {
		panic(fmt.Sprintf("kpn: process %q has no body", p.Name))
	}
	if p.Code == nil {
		panic(fmt.Sprintf("kpn: process %q has no code region", p.Name))
	}
	p.resume = make(chan resumeMsg)
	p.yield = make(chan Yield)
	p.ctx = newCtx(p)
	p.state = Ready
	go p.run()
}

func (p *Process) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				return // engine tear-down
			}
			// Retire any pending commits the body left behind so counters
			// stay consistent. flushEntry zeroes each register before
			// committing, so a panic raised by the flush itself cannot
			// recurse here.
			p.ctx.flushAll()
			p.yield <- Yield{Reason: YieldFailed, Err: fmt.Errorf("kpn: process %q: %v", p.Name, r)}
			return
		}
		p.ctx.flushAll()
		p.yield <- Yield{Reason: YieldDone}
	}()
	p.ctx.awaitResume()
	p.Body(p.ctx)
}

// RunSlice resumes the task on the given core with the given cycle budget
// and blocks until it yields. It must only be called when Runnable.
func (p *Process) RunSlice(core *cpu.Core, memory Memory, budget int64) Yield {
	switch p.state {
	case Ready, Blocked:
	default:
		panic(fmt.Sprintf("kpn: RunSlice on process %q in state %v", p.Name, p.state))
	}
	p.state = Running
	p.resume <- resumeMsg{core: core, mem: memory, budget: budget}
	y := <-p.yield
	p.last = y
	switch y.Reason {
	case YieldQuantum:
		p.state = Ready
	case YieldBlocked:
		p.state = Blocked
	case YieldDone:
		p.state = Done
	case YieldFailed:
		p.state = Failed
	}
	return y
}

// Runnable reports whether the process can make progress: Ready, or
// Blocked with a now-satisfied condition.
func (p *Process) Runnable() bool {
	switch p.state {
	case Ready:
		return true
	case Blocked:
		return p.last.CanRun == nil || p.last.CanRun()
	}
	return false
}

// Kill tears down a not-yet-finished process goroutine (used on abnormal
// engine shutdown). It is a no-op for Done/Failed processes.
func (p *Process) Kill() {
	switch p.state {
	case Ready, Blocked:
		p.resume <- resumeMsg{kill: true}
		p.state = Failed
	}
}

// Ctx is the execution context handed to a task body. All methods must be
// called from the task goroutine only.
type Ctx struct {
	proc *Process

	core   *cpu.Core
	memsys Memory
	noMem  bool // memsys is NoMemory: fetch and charge nothing
	budget int64

	fetchCursor uint64
	instrAccum  uint64
	consumed    uint64 // execution + stall cycles attributed to this task

	// rec observes the task's operation stream during trace capture;
	// recMute suppresses access/bulk records while a FIFO operation —
	// recorded as a single event — issues its internal buffer traffic.
	rec     Recorder
	recMute int

	// Line-register file of the exact fast path: slotWays registers per
	// L1 set (mirroring the L1's associativity) plus one register for
	// the bypass line buffer. A register is armed by the slow-path walk
	// that brought (or found) its line in the L1; subsequent accesses to
	// a registered line are guaranteed repeats (L1 hits, or merged
	// bypass bursts): their latency is charged immediately — so core
	// time, slice budget and bus arbitration stay cycle-exact
	// continuously — while the per-line cache-state commit (LRU stamp,
	// dirty bit, statistics) is buffered and retired in one
	// CommitRepeats call.
	//
	// Residency proof: a registered line can only leave the L1 through a
	// fill into its set, every fill happens inside a slow-path walk of
	// this task (strict handoff: nothing else touches this core's L1
	// mid-slice), and each walk reports its victim, which drops the
	// victim's register. Commit exactness: LRU victim selection compares
	// stamps within one set only, so only per-set commit order matters;
	// each set's pending registers are retired in last-touch order
	// before any walk into that set stamps the L1 behind them. The
	// bypass register is retired before any walk (a bypass walk moves
	// the hardware line buffer; the commit is a pure counter, so early
	// retirement is exact). Everything is retired and invalidated at
	// yields — after a resume the task may be on another core, and other
	// tasks touch the caches in between.
	lmem     LineMemory       // memsys's fast-path view; nil = word-granular
	hier     *cache.Hierarchy // memsys's concrete type, when it is one: devirtualized dispatch
	coalesce bool             // false under Process.WordExact
	shift    uint             // line shift of the register file
	setMask  uint64           // L1 set mask
	hitLat   uint64           // per-repeat latency, cacheable class
	mergeLat uint64           // per-repeat latency, bypass class
	slots    []lineRun        // slotWays per set; nil = cacheable batching off
	keys     []uint64         // packed epoch|line|region per slot, for the scan
	slotsBuf []lineRun
	keysBuf  []uint64
	bypass   lineRun
	dirty    []int32 // slot indices with pending commits; -1 = bypass
	epoch    uint64  // registers are valid only when their epoch matches
	seq      uint64  // per-register last-touch order within a slice
}

// Packed register keys: epoch (18 bits, wrapping with a full key clear) |
// line (26 bits: the 4 GiB address space holds 2^26 64 B lines) | region
// (20 bits, guarded). One compare identifies line, region and validity.
const (
	keyRegionBits = 20
	keyLineBits   = 26
	keyEpochMask  = 1<<(64-keyRegionBits-keyLineBits) - 1
)

// packKey builds the scan key, or 0 when the access is outside the
// packable range (then registers never match and every access walks).
func (c *Ctx) packKey(line uint64, region mem.RegionID) uint64 {
	if line >= 1<<keyLineBits || uint64(region) >= 1<<keyRegionBits {
		return 0
	}
	return (c.epoch&keyEpochMask)<<(keyLineBits+keyRegionBits) | line<<keyRegionBits | uint64(region)
}

// slotWays is the associativity of the line-register file. Matching the
// platform L1's associativity keeps a task's simultaneous hot lines per
// set (code line plus stencil rows) registered together; a deeper file
// would track lines the L1 itself cannot hold.
const slotWays = 4

// lineRun is one line register: the armed line plus its pending
// (uncommitted) repeat counts.
type lineRun struct {
	line    uint64
	region  mem.RegionID
	idx     int32 // flat slot index, -1 for the bypass register
	merge   bool
	pending bool
	epoch   uint64
	touch   uint64 // last-touch sequence, orders per-set commits
	lat0    uint64 // latency of one repeat
	reads   uint64
	writes  uint64
}

func newCtx(p *Process) *Ctx {
	return &Ctx{proc: p, coalesce: !p.WordExact, rec: p.Recorder, epoch: 1, bypass: lineRun{idx: -1}}
}

// muteRecord suppresses access/bulk recording (used by FIFO operations,
// which are recorded as single events); unmuteRecord restores it. Both
// are single nil checks when no recorder is attached.
func (c *Ctx) muteRecord() {
	if c.rec != nil {
		c.recMute++
	}
}

func (c *Ctx) unmuteRecord() {
	if c.rec != nil {
		c.recMute--
	}
}

// awaitResume parks the goroutine until the engine grants a slice.
func (c *Ctx) awaitResume() {
	m := <-c.proc.resume
	if m.kill {
		panic(killSignal{})
	}
	c.core = m.core
	if m.mem != c.memsys {
		c.memsys = m.mem
		// Resolve the concrete hierarchy once per memory change, so the
		// per-access charging paths dispatch directly instead of through
		// the Memory/LineMemory interface tables (test stubs keep the
		// interface fallback).
		c.hier, _ = m.mem.(*cache.Hierarchy)
		_, c.noMem = m.mem.(noMemory)
		c.lmem = nil
		c.slots = nil
		if c.coalesce {
			if lm, ok := m.mem.(LineMemory); ok {
				c.lmem = lm
				var sets int
				c.shift, sets, c.hitLat, c.mergeLat = lm.FastSpec()
				if sets > 0 {
					need := sets * slotWays
					if len(c.slotsBuf) < need {
						// Size for the largest leaf geometry the task can
						// meet (the platform's hint), so later resumes on a
						// differently-sized leaf re-slice instead of
						// reallocating. Registers keep their flat idx for
						// the whole backing array, so a larger view later
						// exposes correctly initialized slots; stale keys
						// in the hidden tail cannot match (they carry an
						// older epoch) and the wrap wipe below clears the
						// full backing.
						full := need
						if hint := c.proc.MaxLeafSets * slotWays; hint > full {
							full = hint
						}
						c.slotsBuf = arena.Make[lineRun](c.proc.Arena, full)
						for i := range c.slotsBuf {
							c.slotsBuf[i].idx = int32(i)
						}
						c.keysBuf = arena.Make[uint64](c.proc.Arena, full)
						// The dirty list is bounded: every visible register
						// pends at most once between flushes (need entries),
						// plus the bypass register. Pre-capping it here makes
						// the appends in access/bufferOn allocation-free.
						c.dirty = arena.Make[int32](c.proc.Arena, full+1)[:0]
					}
					c.slots = c.slotsBuf[:need]
					c.keys = c.keysBuf[:need]
					c.setMask = uint64(sets - 1)
				}
			}
		}
	}
	// Invalidate every register: the task may now be on a different
	// core, and other tasks and the OS touched the caches in between.
	// The packed keys embed the (wrapping) epoch; when the masked epoch
	// revisits a value, the keys of the eponymous earlier epoch are
	// wiped so they cannot resurrect.
	c.epoch++
	if c.epoch&keyEpochMask == 0 {
		for i := range c.keysBuf {
			c.keysBuf[i] = 0
		}
	}
	c.budget = m.budget
}

// yieldAndWait hands control back and parks until the next slice, with
// every pending commit retired first — other tasks observe the caches
// while this one is parked.
func (c *Ctx) yieldAndWait(y Yield) {
	c.flushAll()
	c.proc.yield <- y
	c.awaitResume()
}

// maybeYield yields when the slice budget is exhausted. Repeats charge
// their latency immediately, so the budget is always current.
func (c *Ctx) maybeYield() {
	if c.budget <= 0 {
		c.yieldAndWait(Yield{Reason: YieldQuantum})
	}
}

// WaitFor blocks the task until cond holds. It is the primitive beneath
// FIFO read/write and is exported for custom synchronization in tests.
func (c *Ctx) WaitFor(cond func() bool, on *FIFO) {
	for !cond() {
		c.yieldAndWait(Yield{Reason: YieldBlocked, CanRun: cond, On: on})
	}
}

// Process returns the owning process.
func (c *Ctx) Process() *Process { return c.proc }

// Core returns the core currently executing the task (valid inside the
// body between resumes; the scheduler may migrate the task).
func (c *Ctx) Core() *cpu.Core { return c.core }

// Heap returns the task's heap region.
func (c *Ctx) Heap() *mem.Region { return c.proc.Heap }

// Now returns the local time of the current core (always current: the
// fast path charges every access's latency as it is issued).
func (c *Ctx) Now() uint64 { return c.core.Now() }

// Exec retires n instructions: advances time by n*BaseCPI and issues one
// instruction fetch per cache line's worth of instructions (4-byte
// instruction words), cycling through the task's hot code footprint.
// Under NoMemory it only advances time.
func (c *Ctx) Exec(n uint64) {
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordExec(n)
	}
	if c.noMem {
		cyc := c.core.Exec(n)
		c.budget -= int64(cyc)
		c.consumed += cyc
		c.maybeYield()
		return
	}
	hot := c.proc.HotCode
	if hot == 0 || hot > c.proc.Code.Size {
		hot = c.proc.Code.Size
	}
	const instrPerLine = ctxLineSize / 4
	for n > 0 {
		step := instrPerLine - c.instrAccum&(instrPerLine-1)
		if step > n {
			step = n
		}
		cyc := c.core.Exec(step)
		c.budget -= int64(cyc)
		c.consumed += cyc
		c.instrAccum += step
		n -= step
		if c.instrAccum&(instrPerLine-1) == 0 {
			a := trace.Access{
				Addr:   c.proc.Code.Base + c.fetchCursor,
				Size:   uint8(ctxLineSize),
				Op:     trace.Fetch,
				Region: c.proc.Code.ID,
			}
			c.access(a)
			c.fetchCursor += ctxLineSize
			if c.fetchCursor >= hot {
				c.fetchCursor = 0
			}
		}
		c.maybeYield()
	}
}

// charge sends one access through the memory system and stalls the core —
// the word-granular reference path. The platform's concrete hierarchy is
// called directly when awaitResume resolved one.
func (c *Ctx) charge(a trace.Access) {
	var lat uint64
	if h := c.hier; h != nil {
		lat = h.AccessAt(a, c.core.Now())
	} else {
		lat = c.memsys.AccessAt(a, c.core.Now())
	}
	c.core.Stall(lat)
	c.budget -= int64(lat)
	c.consumed += lat
}

// chargeFiltered charges one access through the line-register file: a
// single-line access to an armed register is a guaranteed repeat (latency
// charged now, cache-state commit deferred); anything else takes the slow
// path and re-arms a register on the last line it touched. It never
// yields; callers test the budget afterwards, exactly as the
// word-granular loop does.
func (c *Ctx) chargeFiltered(a trace.Access) {
	if c.lmem == nil {
		c.charge(a)
		return
	}
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	first := a.Addr >> c.shift
	last := (a.Addr + size - 1) >> c.shift
	if first == last {
		key := c.packKey(first, a.Region)
		if e := c.lookup(first, a.Region, key); e != nil {
			c.bufferOn(e, 1, a.Op == trace.Write)
			return
		}
		c.slowCharge1(first, a.Op == trace.Write, a.Region, key)
		return
	}
	c.slowChargeWide(a, first, last)
}

// lookup returns the armed register covering a single-line access, or
// nil. key is the access's packed key (0 = unpackable, never matches).
func (c *Ctx) lookup(line uint64, region mem.RegionID, key uint64) *lineRun {
	if b := &c.bypass; b.epoch == c.epoch && b.line == line && b.region == region {
		return b
	}
	if c.slots != nil && key != 0 {
		base := (line & c.setMask) * slotWays
		for i := base; i < base+slotWays; i++ {
			if c.keys[i] == key {
				return &c.slots[i]
			}
		}
	}
	return nil
}

// slowCharge1 walks the hierarchy for one single-line access that missed
// the register file, and updates the file from the walk's outcome: the
// accessed line is armed; on an L1 fill the reported victim's register is
// dropped. Pending commits that the walk must observe in order — the
// accessed set's, plus the bypass register's (a bypass walk moves the
// hardware line buffer) — are retired first.
func (c *Ctx) slowCharge1(line uint64, write bool, region mem.RegionID, key uint64) {
	if c.bypass.pending {
		c.flushEntry(&c.bypass)
	}
	var base uint64
	if c.slots != nil {
		base = (line & c.setMask) * slotWays
		c.flushSlot(base)
	}
	var lat uint64
	var cacheable, filled bool
	var evicted uint64
	if h := c.hier; h != nil {
		lat, cacheable, filled, evicted = h.ChargeLine(line, write, region, c.core.Now())
	} else {
		lat, cacheable, filled, evicted = c.lmem.ChargeLine(line, write, region, c.core.Now())
	}
	c.core.Stall(lat)
	c.budget -= int64(lat)
	c.consumed += lat
	if cacheable {
		if c.slots != nil {
			if filled && evicted != 0 {
				c.dropLine(base, evicted-1)
			}
			c.arm(base, line, region, key)
		}
	} else {
		b := &c.bypass
		b.line, b.region, b.epoch, b.lat0, b.merge = line, region, c.epoch, c.mergeLat, true
	}
}

// slowChargeWide charges a line-straddling access through the generic
// walk, conservatively retiring and dropping every register the walk
// could interact with, and arms the last line touched.
func (c *Ctx) slowChargeWide(a trace.Access, first, last uint64) {
	if c.bypass.pending {
		c.flushEntry(&c.bypass)
	}
	var cacheable bool
	if h := c.hier; h != nil {
		cacheable = h.CacheableLine(a.Region)
	} else {
		cacheable = c.lmem.CacheableLine(a.Region)
	}
	if cacheable && c.slots != nil {
		for ln := first; ln <= last; ln++ {
			base := (ln & c.setMask) * slotWays
			c.flushSlot(base)
			for i := base; i < base+slotWays; i++ {
				c.slots[i].epoch = 0
				c.keys[i] = 0
			}
		}
	} else if !cacheable {
		c.bypass.epoch = 0
	}
	c.charge(a)
	if cacheable {
		if c.slots != nil {
			c.arm((last&c.setMask)*slotWays, last, a.Region, c.packKey(last, a.Region))
		}
	} else {
		b := &c.bypass
		b.line, b.region, b.epoch, b.lat0, b.merge = last, a.Region, c.epoch, c.mergeLat, true
	}
}

// flushSlot retires a set's pending commits in last-touch order — the
// per-set LRU order the word-granular path would have stamped.
func (c *Ctx) flushSlot(base uint64) {
	for {
		var best *lineRun
		for i := base; i < base+slotWays; i++ {
			s := &c.slots[i]
			if s.pending && (best == nil || s.touch < best.touch) {
				best = s
			}
		}
		if best == nil {
			return
		}
		c.flushEntry(best)
	}
}

// dropLine invalidates every register holding an evicted line. An L1
// line wider than the address space's region alignment can span two
// regions and thus carry two registers; all of them leave with the line.
func (c *Ctx) dropLine(base, line uint64) {
	for i := base; i < base+slotWays; i++ {
		s := &c.slots[i]
		if s.epoch == c.epoch && s.line == line {
			s.epoch = 0
			c.keys[i] = 0
		}
	}
}

// arm registers a line in its set, replacing a stale or least-recently
// touched register. The set's pending commits were already retired by the
// preceding flushSlot. Unpackable accesses (key 0) are not armed — the
// scan could never find them.
func (c *Ctx) arm(base, line uint64, region mem.RegionID, key uint64) {
	if key == 0 {
		return
	}
	victim := &c.slots[base]
	for i := base; i < base+slotWays; i++ {
		s := &c.slots[i]
		if s.epoch != c.epoch {
			victim = s
			break
		}
		if s.touch < victim.touch {
			victim = s
		}
	}
	victim.line, victim.region, victim.epoch, victim.lat0, victim.merge = line, region, c.epoch, c.hitLat, false
	victim.touch = c.seq
	c.seq++
	c.keys[victim.idx] = key
}

// bufferOn charges up to m guaranteed repeats on an armed register —
// stall, budget and consumed cycles immediately; reads/writes counts
// deferred — stopping at the repeat on which the slice budget reaches
// zero so the caller's maybeYield fires on exactly the word the
// word-granular loop would yield on. Returns how many were charged.
func (c *Ctx) bufferOn(e *lineRun, m uint64, write bool) uint64 {
	take := m
	if e.lat0 > 0 && m > 1 {
		if c.budget <= 0 {
			take = 1
		} else if until := (uint64(c.budget) + e.lat0 - 1) / e.lat0; take > until {
			take = until
		}
	}
	if !e.pending {
		e.pending = true
		c.dirty = append(c.dirty, e.idx)
	}
	e.touch = c.seq
	c.seq++
	if write {
		e.writes += take
	} else {
		e.reads += take
	}
	if e.lat0 != 0 {
		lat := take * e.lat0
		c.core.Stall(lat)
		c.budget -= int64(lat)
		c.consumed += lat
	}
	return take
}

// flushEntry retires a register's pending commit. Counts are zeroed
// before committing so a panic from the commit (a violated residency
// proof) cannot double-commit from the failure path.
func (c *Ctx) flushEntry(e *lineRun) {
	if !e.pending {
		return
	}
	reads, writes := e.reads, e.writes
	e.reads, e.writes, e.pending = 0, 0, false
	if h := c.hier; h != nil {
		h.CommitRepeats(e.line, e.region, reads, writes, e.merge)
		return
	}
	c.lmem.CommitRepeats(e.line, e.region, reads, writes, e.merge)
}

// flushAll retires every pending commit. Commit order across sets is
// free — LRU order only matters within a set — but registers of the same
// set must retire in last-touch order, so each pending register is
// flushed through its set's ordered flush.
func (c *Ctx) flushAll() {
	for _, idx := range c.dirty {
		if idx < 0 {
			c.flushEntry(&c.bypass)
		} else if c.slots[idx].pending {
			c.flushSlot(uint64(idx) &^ (slotWays - 1))
		}
	}
	c.dirty = c.dirty[:0]
}

// access issues one access and yields if the budget ran out. The
// registered-repeat case — the bulk of all traffic — is handled inline
// with no further calls; everything else falls through to the filter. A
// zero-latency repeat skips the yield test: it cannot exhaust the budget,
// which is positive on entry from every charging path (each yields before
// returning with it non-positive) — except from Exec's fetch site, which
// runs its own budget test right after.
func (c *Ctx) access(a trace.Access) {
	if c.lmem != nil {
		size := uint64(a.Size)
		if size == 0 {
			size = 1
		}
		line := a.Addr >> c.shift
		if (a.Addr+size-1)>>c.shift == line && line < 1<<keyLineBits && uint64(a.Region) < 1<<keyRegionBits {
			key := (c.epoch&keyEpochMask)<<(keyLineBits+keyRegionBits) | line<<keyRegionBits | uint64(a.Region)
			var e *lineRun
			if c.slots != nil {
				base := (line & c.setMask) * slotWays
				k := c.keys[base : base+slotWays : base+slotWays]
				switch key {
				case k[0]:
					e = &c.slots[base]
				case k[1]:
					e = &c.slots[base+1]
				case k[2]:
					e = &c.slots[base+2]
				case k[3]:
					e = &c.slots[base+3]
				}
			}
			if e == nil {
				if b := &c.bypass; b.epoch == c.epoch && b.line == line && b.region == a.Region {
					e = b
				}
			}
			if e != nil {
				e.touch = c.seq
				c.seq++
				if a.Op == trace.Write {
					e.writes++
				} else {
					e.reads++
				}
				if !e.pending {
					e.pending = true
					c.dirty = append(c.dirty, e.idx)
				}
				if e.lat0 != 0 {
					c.core.Stall(e.lat0)
					c.budget -= int64(e.lat0)
					c.consumed += e.lat0
					c.maybeYield()
				}
				return
			}
			c.slowCharge1(line, a.Op == trace.Write, a.Region, key)
			c.maybeYield()
			return
		}
	}
	if c.noMem {
		return
	}
	c.chargeFiltered(a)
	c.maybeYield()
}

// recordAccess records one data access during trace capture.
func (c *Ctx) recordAccess(a trace.Access) {
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordAccess(a)
	}
}

// Load32 reads a 32-bit word from a region, charging the access.
func (c *Ctx) Load32(r *mem.Region, off uint64) uint32 {
	v, err := r.Load32(off)
	if err != nil {
		panic(err)
	}
	a := trace.Access{Addr: r.Base + off, Size: 4, Op: trace.Read, Region: r.ID}
	c.recordAccess(a)
	c.access(a)
	return v
}

// Store32 writes a 32-bit word to a region, charging the access.
func (c *Ctx) Store32(r *mem.Region, off uint64, v uint32) {
	if err := r.Store32(off, v); err != nil {
		panic(err)
	}
	a := trace.Access{Addr: r.Base + off, Size: 4, Op: trace.Write, Region: r.ID}
	c.recordAccess(a)
	c.access(a)
}

// Load8 reads one byte from a region, charging the access.
func (c *Ctx) Load8(r *mem.Region, off uint64) byte {
	v, err := r.Load8(off)
	if err != nil {
		panic(err)
	}
	a := trace.Access{Addr: r.Base + off, Size: 1, Op: trace.Read, Region: r.ID}
	c.recordAccess(a)
	c.access(a)
	return v
}

// Store8 writes one byte to a region, charging the access.
func (c *Ctx) Store8(r *mem.Region, off uint64, v byte) {
	if err := r.Store8(off, v); err != nil {
		panic(err)
	}
	a := trace.Access{Addr: r.Base + off, Size: 1, Op: trace.Write, Region: r.ID}
	c.recordAccess(a)
	c.access(a)
}

// LoadBytes copies len(dst) bytes out of a region with word-granular
// charged accesses, the pattern of a memcpy loop.
func (c *Ctx) LoadBytes(r *mem.Region, off uint64, dst []byte) {
	backing := r.Bytes()
	if off+uint64(len(dst)) > r.Size {
		panic(fmt.Sprintf("kpn: LoadBytes out of range: %s off=%d len=%d", r.Name, off, len(dst)))
	}
	copy(dst, backing[off:off+uint64(len(dst))])
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordBulk(r.ID, off, uint64(len(dst)), trace.Read)
	}
	c.chargeBulk(r, off, uint64(len(dst)), trace.Read)
}

// StoreBytes copies src into a region with word-granular charged accesses.
func (c *Ctx) StoreBytes(r *mem.Region, off uint64, src []byte) {
	backing := r.Bytes()
	if off+uint64(len(src)) > r.Size {
		panic(fmt.Sprintf("kpn: StoreBytes out of range: %s off=%d len=%d", r.Name, off, len(src)))
	}
	copy(backing[off:off+uint64(len(src))], src)
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordBulk(r.ID, off, uint64(len(src)), trace.Write)
	}
	c.chargeBulk(r, off, uint64(len(src)), trace.Write)
}

// ChargeAccess charges one access through the engine's normal charging
// path — line-register file, hierarchy walk, budget test — without
// touching backing storage. It is the trace-replay primitive for
// recorded Load8/Load32/Store8/Store32 events. It records like the
// functional accessors do, so capturing a replayed task re-records the
// identical stream (replayed workloads are first-class).
func (c *Ctx) ChargeAccess(a trace.Access) {
	c.recordAccess(a)
	c.access(a)
}

// ChargeBulk charges the word-decomposed traffic of a bulk transfer of
// n bytes at off in r — exactly what LoadBytes/StoreBytes charge,
// including the line-merged batching of the fast path — without moving
// bytes. It is the trace-replay primitive for recorded bulk events, and
// records like LoadBytes/StoreBytes do.
func (c *Ctx) ChargeBulk(r *mem.Region, off, n uint64, op trace.Op) {
	if off+n > r.Size {
		panic(fmt.Sprintf("kpn: ChargeBulk out of range: %s off=%d len=%d", r.Name, off, n))
	}
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordBulk(r.ID, off, n, op)
	}
	c.chargeBulk(r, off, n, op)
}

// chargeBulk charges the memory traffic of a bulk transfer: one access
// per 4-byte word (the final word may be shorter), exactly the pattern of
// a memcpy loop. On the line-merged fast path the words of each cache
// line after the first are committed as a single batch — one hierarchy
// walk plus one CommitRepeats per line instead of sixteen walks — while
// yields still land on exactly the word the word-granular loop would
// yield on.
func (c *Ctx) chargeBulk(r *mem.Region, off, n uint64, op trace.Op) {
	if c.noMem {
		return
	}
	write := op == trace.Write
	for done := uint64(0); done < n; {
		sz := n - done
		if sz > 4 {
			sz = 4
		}
		c.access(trace.Access{Addr: r.Base + off + done, Size: uint8(sz), Op: op, Region: r.ID})
		done += sz
		if c.lmem == nil || done >= n {
			continue
		}
		// Batch the following words that lie entirely inside the line the
		// last word touched, if a register covers it. A word straddling
		// the line boundary is left to the next slow-path access.
		cur := r.Base + off + done
		line := cur >> c.shift
		e := c.lookup(line, r.ID, c.packKey(line, r.ID))
		if e == nil {
			continue
		}
		rm := n - done
		space := ((line + 1) << c.shift) - cur
		var m, bytes uint64
		if rm <= space {
			m, bytes = (rm+3)/4, rm
		} else {
			m = space / 4
			bytes = m * 4
		}
		if m == 0 {
			continue
		}
		k := c.bufferOn(e, m, write)
		if k == m {
			done += bytes
		} else {
			// Budget exhausted mid-line: all charged words were full
			// 4-byte words (only the last of m can be short); the rest
			// are re-issued after the resume.
			done += k * 4
		}
		// The word loop tests the budget after every word — including
		// the final one of the transfer — so the yield lands on exactly
		// the same word.
		c.maybeYield()
	}
}
