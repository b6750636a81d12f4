package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// MemPort is the interface to whatever lies below the last cache level —
// in the CAKE tile, the snooping interconnect plus off-chip memory
// (internal/bus). Request is a demand line fill whose latency stalls the
// core; Post is a posted writeback that occupies bandwidth but does not
// stall the issuing core. addr is the byte address of the line, used for
// memory-bank interleaving.
type MemPort interface {
	Request(addr, now uint64) uint64
	Post(addr, now uint64)
}

// FixedMem is a MemPort with constant latency and no contention, used in
// unit tests and in isolated (single-entity) profiling runs.
type FixedMem struct {
	Latency uint64
	Reads   uint64
	Writes  uint64
}

// Request implements MemPort.
func (m *FixedMem) Request(addr, now uint64) uint64 {
	m.Reads++
	return m.Latency
}

// Post implements MemPort.
func (m *FixedMem) Post(addr, now uint64) { m.Writes++ }

// Hierarchy interprets one CPU's path through a cache Topology: the
// ordered cache levels from the CPU-side leaf to the memory-side root,
// terminating in the memory port, with an inclusive walk charging
// latencies and cascading victim writebacks at every level. It is the
// per-CPU view of a Tree (Tree.Hierarchy); CPUs sharing a level (a
// shared L2 or L3, a cluster cache) pass the same *Cache in their paths,
// exactly as the CAKE tile of Figure 1 shares its L2.
//
// Shared regions (FIFOs, frame buffers, data/bss) bypass every level
// before the first shared-scope one: their lines live only in caches
// visible to all processors. This stands in for coherence — on the real
// platform the snooping protocol keeps shared lines effectively out of
// the private (and cluster) caches, and the paper's analysis (section 3)
// likewise places all inter-task interaction in the shared cache. The
// substitution is described in README.md ("Memory hierarchy", shared
// regions and coherence).
//
// Latency model: the leaf level's hit latency is charged on every access
// (it covers address generation and the leaf tag probe, even when the
// access then bypasses the leaf); every deeper level accessed adds its
// own hit latency; a miss at the root adds the memory port's demand
// latency. With no sub-shared level there is no probe charge — the
// walk's first level carries the full cost of reaching it.
type Hierarchy struct {
	levels      []*Cache
	hitLat      []uint64
	shifts      []uint
	firstShared int    // index of the first shared-scope level
	probeLat    uint64 // hitLat[0] when a sub-shared leaf exists, else 0

	Mem MemPort

	// PrivCacheable decides whether a region's lines may live in the
	// levels before the first shared one (the leaf private/cluster
	// caches). nil means everything may (single-task unit tests).
	PrivCacheable func(mem.RegionID) bool

	// RegionOf resolves a line address back to its owning entity, for
	// attributing writeback traffic. nil disables attribution.
	RegionOf func(addr uint64) mem.RegionID

	// DemandFills counts fills into the leaf level (an access that
	// missed there and walked deeper); WritebacksToL2 counts dirty leaf
	// victims written into the next level; WritebacksToMem counts dirty
	// root victims posted to the memory port. Victim traffic between
	// intermediate levels shows up in each level's own Stats.
	DemandFills     uint64
	WritebacksToL2  uint64
	WritebacksToMem uint64

	// Burst merging on the bypass path: word-by-word streaming through a
	// FIFO or frame buffer touches the same shared-level line many times
	// in a row; the hardware serves those from the line buffer of the
	// outstanding transaction. Only the first touch of a line is a cache
	// access; subsequent touches cost one cycle. (The leaf cache performs
	// the equivalent merging for cacheable regions.)
	lastBypassLine uint64
	haveBypassLine bool
	MergedBursts   uint64
}

// NewHierarchy wires one CPU's leaf-to-root path. levels runs from the
// CPU-side leaf to the memory-side root; firstShared is the index of the
// first shared-scope level — the root must be shared (Topology.Validate
// enforces the same), so firstShared < len(levels); hitLats are the
// per-level hit latencies. It panics on a malformed path: paths are
// fixed by the platform description, so a bad one is a programming
// error.
func NewHierarchy(levels []*Cache, firstShared int, hitLats []uint64, memPort MemPort) *Hierarchy {
	if len(levels) == 0 {
		panic("cache: hierarchy with no levels")
	}
	if len(hitLats) != len(levels) {
		panic(fmt.Sprintf("cache: %d hit latencies for %d levels", len(hitLats), len(levels)))
	}
	if firstShared < 0 || firstShared >= len(levels) {
		panic(fmt.Sprintf("cache: firstShared %d out of range for %d levels (the root level must be shared)", firstShared, len(levels)))
	}
	h := &Hierarchy{
		levels:      levels,
		hitLat:      append([]uint64(nil), hitLats...),
		firstShared: firstShared,
		Mem:         memPort,
	}
	for _, c := range levels {
		h.shifts = append(h.shifts, c.lineShift)
	}
	if firstShared > 0 {
		h.probeLat = h.hitLat[0]
	}
	return h
}

// NewTwoLevel is the compatibility constructor for the classic private
// L1 + shared L2 pair (l1 may be nil for the L1-less single-level
// system), preserving the legacy latency semantics: l1HitLat charged on
// every access, l2HitLat added per L2 access.
func NewTwoLevel(l1, l2 *Cache, l1HitLat, l2HitLat uint64, memPort MemPort) *Hierarchy {
	if l1 == nil {
		return NewHierarchy([]*Cache{l2}, 0, []uint64{l2HitLat}, memPort)
	}
	return NewHierarchy([]*Cache{l1, l2}, 1, []uint64{l1HitLat, l2HitLat}, memPort)
}

// Leaf returns the leaf-side private/cluster cache, or nil when the
// first level is already shared.
func (h *Hierarchy) Leaf() *Cache {
	if h.firstShared == 0 {
		return nil
	}
	return h.levels[0]
}

// levelLine converts a line address between two levels' line sizes.
func levelLine(line uint64, fromShift, toShift uint) uint64 {
	if toShift >= fromShift {
		return line >> (toShift - fromShift)
	}
	return line << (fromShift - toShift)
}

// AccessAt performs one access at local time now and returns the latency
// charged to the core. Accesses that straddle a line boundary are split.
func (h *Hierarchy) AccessAt(a trace.Access, now uint64) uint64 {
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	shift := h.shifts[0]
	first := a.Addr >> shift
	last := (a.Addr + size - 1) >> shift
	var lat uint64
	for ln := first; ln <= last; ln++ {
		lat += h.accessLine(ln, shift, a.Op == trace.Write, a.Region, now+lat)
	}
	return lat
}

func (h *Hierarchy) accessLine(lineAddr uint64, shift uint, write bool, region mem.RegionID, now uint64) uint64 {
	lat, _, _ := h.accessLineRes(lineAddr, shift, write, region, now)
	return lat
}

// accessLineRes is accessLine plus the leaf outcome, which the fast
// path's register file uses to track residency (priv false on the bypass
// path, where r0 is meaningless).
func (h *Hierarchy) accessLineRes(lineAddr uint64, shift uint, write bool, region mem.RegionID, now uint64) (lat uint64, priv bool, r0 Result) {
	lat = h.probeLat
	priv = h.firstShared > 0 && (h.PrivCacheable == nil || h.PrivCacheable(region))
	start := 0
	if !priv {
		if h.haveBypassLine && h.lastBypassLine == lineAddr {
			h.MergedBursts++
			return lat + 1, false, r0
		}
		h.lastBypassLine = lineAddr
		h.haveBypassLine = true
		start = h.firstShared
	}
	for k := start; k < len(h.levels); k++ {
		if k > 0 || h.firstShared == 0 {
			lat += h.hitLat[k]
		}
		// The first accessed level sees the access's own operation; any
		// level below sees a read fill (write-allocate above it).
		opWrite := write && k == start
		line := levelLine(lineAddr, shift, h.shifts[k])
		r := h.levels[k].AccessLine(line, opWrite, region)
		if k == 0 {
			r0 = r
		}
		if r.Writeback {
			// A dirty victim cascades into the next level as a posted
			// write, before this level's demand walk descends. A private
			// leaf's victim is inserted at the access's issue time (the
			// store buffer drains in parallel); deeper victims — including
			// a shared leaf's, matching the legacy L1-less hierarchy —
			// surface after the latency accumulated so far.
			wbNow := now + lat
			if k == 0 && h.firstShared > 0 {
				h.WritebacksToL2++
				wbNow = now
			}
			h.writebackInto(k+1, r.VictimTag, h.shifts[k], wbNow)
		}
		if r.Hit {
			if priv && k > 0 {
				h.DemandFills++
			}
			return lat, priv, r0
		}
		if k == len(h.levels)-1 {
			if h.Mem != nil {
				lat += h.Mem.Request(line<<h.shifts[k], now+lat)
			}
		}
	}
	if priv {
		h.DemandFills++
	}
	return lat, priv, r0
}

// writebackInto inserts a victim line evicted from the level above dest
// as a posted write; dirty victims it displaces cascade further down,
// and a dirty root victim is posted to the memory port.
func (h *Hierarchy) writebackInto(dest int, victimTag uint64, fromShift uint, now uint64) {
	if dest == len(h.levels) {
		h.WritebacksToMem++
		if h.Mem != nil {
			h.Mem.Post(victimTag<<fromShift, now)
		}
		return
	}
	region := mem.NoRegion
	if h.RegionOf != nil {
		region = h.RegionOf(victimTag << fromShift)
	}
	line := levelLine(victimTag, fromShift, h.shifts[dest])
	r := h.levels[dest].AccessLine(line, true, region)
	if r.Writeback {
		h.writebackInto(dest+1, r.VictimTag, h.shifts[dest], now)
	}
}

// ChargeLine walks the hierarchy for one single-line access — the
// slow-path primitive of the execution engine's line-register file — and
// reports, besides the latency, what the register file needs to track
// leaf residency exactly: whether the line is cacheable (false = bypass
// class), whether the leaf filled (a leaf miss brought the line in), and
// which valid line the fill evicted (evicted is the victim's line address
// plus one; 0 = no valid line was displaced).
func (h *Hierarchy) ChargeLine(lineAddr uint64, write bool, region mem.RegionID, now uint64) (lat uint64, cacheable, filled bool, evicted uint64) {
	lat, priv, r0 := h.accessLineRes(lineAddr, h.shifts[0], write, region, now)
	if !priv {
		return lat, false, false, 0
	}
	if r0.Hit {
		return lat, true, false, 0
	}
	if r0.Evicted {
		evicted = r0.VictimTag + 1
	}
	return lat, true, true, evicted
}

// LineShift returns log2 of the line-register granularity of the exact
// fast path: the leaf level's line size. It matches the split granularity
// of AccessAt, so a single-line access at this shift never spans
// hierarchy lines.
func (h *Hierarchy) LineShift() uint { return h.shifts[0] }

// FastSpec returns the line-register geometry of the exact fast path:
// the line shift, the number of leaf-cache sets to key cacheable line
// registers by (0 disables cacheable batching — no sub-shared leaf, or
// one that is observed or partitioned and therefore needs the
// word-granular walk), and the per-repeat latency of each repeat class.
//
// The exactness argument: tasks execute in strict handoff — exactly one
// task runs at any instant across the whole tile — so between two
// accesses of one task to the same leaf line, the leaf cache on the
// task's path (private, or shared by its cluster) can only be touched by
// the task's own accesses; OS switch traffic and other tasks run only
// between slices, and the engine invalidates every register at each
// resume. A registered line stays resident — and every re-reference is a
// guaranteed hit at hitLat — until a walk reaches its set (only a fill
// into the set can evict it), which is when the engine retires the
// register. A bypassed line re-referenced immediately is still in the
// outstanding transaction's line buffer (merged burst at mergeLat),
// until any other bypass access moves the buffer. The engine samples
// this spec whenever a slice resume hands the task a different Memory
// than its previous slice used.
func (h *Hierarchy) FastSpec() (shift uint, sets int, hitLat, mergeLat uint64) {
	shift = h.shifts[0]
	if h.firstShared > 0 && h.levels[0].Observer == nil && h.levels[0].table == nil {
		sets = h.levels[0].cfg.Sets
	}
	return shift, sets, h.probeLat, h.probeLat + 1
}

// CacheableLine reports whether the region's lines may live in the leaf
// cache; false selects the bypass burst-merge repeat class.
func (h *Hierarchy) CacheableLine(region mem.RegionID) bool {
	return h.firstShared > 0 && (h.PrivCacheable == nil || h.PrivCacheable(region))
}

// CommitRepeats commits a batch of reads+writes coalesced repeat
// references of one line, classified by CacheableLine. On the merge path
// it credits the burst-merge counter; on the cacheable path it
// batch-commits guaranteed leaf hits. Latency is charged by the caller
// (repeats never reach the deeper levels or the memory port on either
// path, matching the word-granular walk).
func (h *Hierarchy) CommitRepeats(lineAddr uint64, region mem.RegionID, reads, writes uint64, merge bool) {
	if merge {
		if !h.haveBypassLine || h.lastBypassLine != lineAddr {
			panic(fmt.Sprintf("cache: CommitRepeats merge of line %#x, bypass buffer holds %#x (fast-path burst proof violated)",
				lineAddr, h.lastBypassLine))
		}
		h.MergedBursts += reads + writes
		return
	}
	h.levels[0].CommitHits(lineAddr, region, reads, writes)
}
