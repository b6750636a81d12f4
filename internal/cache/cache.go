// Package cache implements the set-associative, partitionable cache model
// at the heart of the reproduction.
//
// A Cache is a conventional write-back, write-allocate, LRU
// set-associative cache. Compositionality is induced exactly as in the
// paper (section 4.2): the conventional set index of every access can be
// translated through a PartitionTable that maps the access's owning
// entity (task or communication buffer, identified by its mem.RegionID)
// to an exclusive, power-of-two-sized range of sets. With a nil
// PartitionTable the cache behaves as an ordinary shared cache — the
// baseline of the paper's evaluation.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/arena"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config describes the geometry of one cache.
type Config struct {
	Name     string
	Sets     int // number of sets; power of two
	Ways     int // associativity
	LineSize int // bytes per line; power of two
}

// SizeBytes returns the capacity of a cache with this geometry.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// SetMask returns the mask selecting the set index from a line address.
// Exported so geometry consumers (tests, the profiling engines' oracles)
// index exactly like the cache itself; New uses it internally.
func (c Config) SetMask() uint64 { return uint64(c.Sets - 1) }

// LineShift returns log2(LineSize), the shift turning a byte address
// into a line address. Exported for the same reason as SetMask.
func (c Config) LineShift() uint { return uint(bits.TrailingZeros(uint(c.LineSize))) }

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: ways %d not positive", c.Name, c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a positive power of two", c.Name, c.LineSize)
	}
	return nil
}

// Stats aggregates access outcomes for a cache or a partition of it.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns Misses/Accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// EntityStats are the per-entity (per-region) counters that Figures 2 and
// 3 of the paper are drawn from.
type EntityStats struct {
	Accesses uint64
	Misses   uint64
}

// Cache is one level of the memory hierarchy. Line state is kept in
// parallel arrays (set-major, sets*ways each) so the per-access tag scan
// of a 4-way set reads one 32-byte block: tags holds the full line
// address plus one (0 = invalid way; line addresses fit 58 bits, so the
// +1 cannot overflow), last the LRU stamps, dirty the write-back bits.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tags      []uint64
	last      []uint64
	dirty     []bool
	table     *PartitionTable

	clock   uint64
	stats   Stats
	byOp    [3]Stats
	regions []EntityStats // indexed by mem.RegionID, grown on demand
	parts   []Stats       // indexed by partition id when table != nil

	// Observer, when non-nil, sees every line reference before it is
	// performed. The profiler taps the L2-bound stream this way.
	Observer func(lineAddr uint64, write bool, region mem.RegionID)
}

// New builds a cache with the given geometry. It panics on an invalid
// configuration: geometry is fixed by the platform description and a bad
// one is a programming error.
func New(cfg Config) *Cache { return newIn(cfg, nil) }

// newIn is New with the line-state arrays — the per-simulation mutable
// state block — drawn from the arena (heap when a is nil).
func newIn(cfg Config, a *arena.Arena) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:       cfg,
		lineShift: cfg.LineShift(),
		setMask:   cfg.SetMask(),
		tags:      arena.Make[uint64](a, n),
		last:      arena.Make[uint64](a, n),
		dirty:     arena.Make[bool](a, n),
	}
}

// PresizeRegions grows the per-entity counter table to cover n region
// ids up front (from the arena when a is non-nil), so the recording hot
// path never reallocates it mid-run. The platform calls this at
// assembly time, when the address space's region population is known.
func (c *Cache) PresizeRegions(n int, a *arena.Arena) {
	if n <= len(c.regions) {
		return
	}
	grown := arena.Make[EntityStats](a, n)
	copy(grown, c.regions)
	c.regions = grown
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// SetPartitionTable installs (or removes, with nil) the index-translation
// table. Installing a table flushes the cache: the translation changes
// where lines live, as it would on real hardware when the OS reloads the
// interval table.
func (c *Cache) SetPartitionTable(t *PartitionTable) {
	if t != nil && t.totalSets != c.cfg.Sets {
		panic(fmt.Sprintf("cache %q: partition table covers %d sets, cache has %d",
			c.cfg.Name, t.totalSets, c.cfg.Sets))
	}
	c.table = t
	c.Flush()
	if t != nil {
		c.parts = make([]Stats, len(t.parts))
	} else {
		c.parts = nil
	}
}

// PartitionTable returns the installed table, or nil for a shared cache.
func (c *Cache) PartitionTable() *PartitionTable { return c.table }

// Flush invalidates every line without counting writebacks or evictions.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.last[i] = 0
		c.dirty[i] = false
	}
}

// ResetStats zeroes all counters (but keeps cache contents), so that
// warm-up can be excluded from measurements.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.byOp = [3]Stats{}
	for i := range c.regions {
		c.regions[i] = EntityStats{}
	}
	for i := range c.parts {
		c.parts[i] = Stats{}
	}
}

// Result describes the outcome of one line reference.
type Result struct {
	Hit       bool
	Evicted   bool   // a valid line was evicted to make room
	Writeback bool   // the evicted victim was dirty
	VictimTag uint64 // line address of the evicted victim, valid when Evicted
}

// Access performs one memory access, possibly split over two lines, and
// returns true if every referenced line hit. Tests drive a cache this
// way; the hierarchy uses AccessLine for latency accounting.
func (c *Cache) Access(a trace.Access) bool {
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	first := a.Addr >> c.lineShift
	last := (a.Addr + size - 1) >> c.lineShift
	hit := true
	for ln := first; ln <= last; ln++ {
		r := c.AccessLine(ln, a.Op == trace.Write, a.Region)
		hit = hit && r.Hit
	}
	return hit
}

// AccessLine references one line (identified by Addr>>lineShift) and
// returns the outcome. The region id selects the partition when a
// PartitionTable is installed.
func (c *Cache) AccessLine(lineAddr uint64, write bool, region mem.RegionID) Result {
	if c.Observer != nil {
		c.Observer(lineAddr, write, region)
	}
	c.clock++
	set := lineAddr & c.setMask
	part := 0
	if c.table != nil {
		set, part = c.table.mapSet(set, region)
	}
	base := int(set) * c.cfg.Ways
	end := base + c.cfg.Ways
	tags := c.tags[base:end:end]
	tag := lineAddr + 1

	var res Result
	// Hit path: one scan over the packed tag block.
	for i := range tags {
		if tags[i] == tag {
			c.last[base+i] = c.clock
			if write {
				c.dirty[base+i] = true
			}
			res.Hit = true
			c.record(region, part, res, write)
			return res
		}
	}
	// Miss: pick invalid way or LRU victim.
	victim := 0
	for i := range tags {
		if tags[i] == 0 {
			victim = i
			goto fill
		}
		if c.last[base+i] < c.last[base+victim] {
			victim = i
		}
	}
	c.stats.Evictions++
	if c.table != nil {
		c.parts[part].Evictions++
	}
	res.Evicted = true
	res.VictimTag = tags[victim] - 1
	if c.dirty[base+victim] {
		res.Writeback = true
	}
fill:
	tags[victim] = tag
	c.last[base+victim] = c.clock
	c.dirty[base+victim] = write
	c.record(region, part, res, write)
	return res
}

// record credits one access outcome to every counter family. Hit, miss
// and writeback are folded into 0/1 increments so the per-access cost is
// a fixed run of adds instead of a branch tree (this path remains hot for
// every first-of-line access and every miss on the line-merged engine).
func (c *Cache) record(region mem.RegionID, part int, res Result, write bool) {
	hit := uint64(0)
	if res.Hit {
		hit = 1
	}
	wb := uint64(0)
	if res.Writeback {
		wb = 1
	}
	op := trace.Read
	if write {
		op = trace.Write
	}
	c.stats.Accesses++
	c.stats.Hits += hit
	c.stats.Misses += 1 - hit
	c.stats.Writebacks += wb
	o := &c.byOp[op]
	o.Accesses++
	o.Hits += hit
	o.Misses += 1 - hit
	if region >= 0 {
		if int(region) >= len(c.regions) {
			grown := make([]EntityStats, region+1)
			copy(grown, c.regions)
			c.regions = grown
		}
		r := &c.regions[region]
		r.Accesses++
		r.Misses += 1 - hit
	}
	if c.table != nil {
		p := &c.parts[part]
		p.Accesses++
		p.Hits += hit
		p.Misses += 1 - hit
		p.Writebacks += wb
	}
}

// CommitHits credits reads+writes guaranteed hits on a line that is known
// to be resident — the batched commit of the exact line-merged fast path.
// The caller (the execution engine's per-task line register) proves
// residency from strict handoff: the line was referenced by the previous
// access of the same task and nothing else has touched this cache since.
//
// State and statistics end up exactly as reads+writes individual
// AccessLine hits would leave them: the clock advances by the batch size,
// the line's LRU stamp becomes the final clock value, the dirty bit is set
// when the batch contains a write, and every counter family (aggregate,
// per-op, per-region, per-partition) is credited per access. The Observer
// is NOT invoked; callers coalescing on an observed cache must take the
// word-granular path instead (Hierarchy.FastSpec disables cacheable
// batching, returning sets=0, when the L1 has an Observer).
//
// CommitHits panics if the line is absent: that means the residency proof
// was violated, which is a programming error in the fast path, and the
// differential oracle tests exist to keep it impossible.
func (c *Cache) CommitHits(lineAddr uint64, region mem.RegionID, reads, writes uint64) {
	n := reads + writes
	if n == 0 {
		return
	}
	set := lineAddr & c.setMask
	part := 0
	if c.table != nil {
		set, part = c.table.mapSet(set, region)
	}
	base := int(set) * c.cfg.Ways
	end := base + c.cfg.Ways
	tags := c.tags[base:end:end]
	tag := lineAddr + 1
	c.clock += n
	found := false
	for i := range tags {
		if tags[i] == tag {
			c.last[base+i] = c.clock
			if writes > 0 {
				c.dirty[base+i] = true
			}
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("cache %q: CommitHits on absent line %#x (fast-path residency proof violated)",
			c.cfg.Name, lineAddr))
	}
	c.stats.Accesses += n
	c.stats.Hits += n
	c.byOp[trace.Read].Accesses += reads
	c.byOp[trace.Read].Hits += reads
	c.byOp[trace.Write].Accesses += writes
	c.byOp[trace.Write].Hits += writes
	if region >= 0 {
		if int(region) >= len(c.regions) {
			grown := make([]EntityStats, region+1)
			copy(grown, c.regions)
			c.regions = grown
		}
		c.regions[region].Accesses += n
	}
	if c.table != nil {
		p := &c.parts[part]
		p.Accesses += n
		p.Hits += n
	}
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or statistics. Region selects the partition.
func (c *Cache) Probe(addr uint64, region mem.RegionID) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	if c.table != nil {
		set, _ = c.table.mapSet(set, region)
	}
	base := int(set) * c.cfg.Ways
	for _, t := range c.tags[base : base+c.cfg.Ways] {
		if t == lineAddr+1 {
			return true
		}
	}
	return false
}

// Stats returns the aggregate counters.
func (c *Cache) Stats() Stats { return c.stats }

// OpStats returns the counters for one access operation (reads or writes;
// fetches are recorded as reads at the cache level).
func (c *Cache) OpStats(op trace.Op) Stats { return c.byOp[op] }

// RegionStats returns the counters for one entity.
func (c *Cache) RegionStats(id mem.RegionID) EntityStats {
	if id < 0 || int(id) >= len(c.regions) {
		return EntityStats{}
	}
	return c.regions[id]
}

// NumTrackedRegions returns how many region ids have been observed.
func (c *Cache) NumTrackedRegions() int { return len(c.regions) }

// PartitionStats returns the counters for one partition; zero Stats when
// no table is installed or the id is out of range.
func (c *Cache) PartitionStats(part int) Stats {
	if part < 0 || part >= len(c.parts) {
		return Stats{}
	}
	return c.parts[part]
}

// OccupiedLines counts currently valid lines (test/diagnostic helper).
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
