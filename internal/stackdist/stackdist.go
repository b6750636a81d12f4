// Package stackdist implements a single-pass, multi-configuration LRU
// cache simulator based on Mattson's stack algorithm.
//
// The profiler in internal/profile needs the miss count of one entity's
// L2-bound reference stream at every candidate partition size — the
// paper's m_i(z_p), "obtained by simulation". Simulating a bank of
// independent caches pays for each candidate separately. Mattson's
// inclusion property makes that redundant: under LRU with bit-selection
// indexing, the content of a set in a cache of S sets and W ways is
// exactly the W most recently referenced distinct lines mapping to that
// set, and the set mapping of a larger power-of-two candidate refines
// the mapping of every smaller one. So a line's hit/miss verdict in
// candidate k is decided by its stack distance counted over same-set
// lines, and one MRU-to-LRU walk of a shared recency stack yields that
// distance at every candidate set count at once — Mattson's classic
// result specialized to set-associative caches (Hill & Smith's
// all-associativity simulation, restricted to the power-of-two set
// counts the allocator can actually grant).
//
// Four further observations make the pass fast:
//
//  1. Tiered grouping. Two lines can conflict in a candidate only if
//     they share a set there, so recency stacks are kept per set of the
//     smallest candidate a tier resolves, and a walk never looks
//     outside the accessed line's group. Candidates split into two
//     tiers — small candidates walk coarse-grouped stacks, large ones
//     finer-grouped stacks — so the walk for a large candidate never
//     pays for lines that merely collide in the smallest.
//  2. Truncation. A line that has fallen out of a tier's largest
//     candidate misses in every candidate of that tier, exactly as if
//     it had never been referenced, so compaction drops every slot
//     beyond that candidate's resident set (its W most recent lines per
//     set). Stacks and walks are therefore bounded by roughly
//     ways x sets_tierTop/sets_tierFirst slots, everything stays
//     cache-resident for arbitrarily long streams — and membership
//     needs no index: the walk itself finds the line or proves, within
//     the bound, that the whole tier misses.
//  3. Compact stacks. Each stack is a flat array with the MRU end last;
//     a re-referenced line tombstones its old slot and is appended
//     afresh, so the walk is a sequential backward scan (no pointer
//     chasing) and the LRU update is O(1). A group's block is allocated
//     on the group's first reference, with room for 8 stack slots, and
//     doubles only when an append would overflow it, so a profiler
//     holds the stacks its stream fills rather than every group's
//     bound: many entities touch a fraction of the groups, and most
//     stacks never approach the truncation bound.
//  4. Packed conflict counters. The candidates a walked line still
//     conflicts in follow from the trailing zeros of the XOR of the two
//     (tagged) slot values, and the per-candidate conflict counters
//     live as bit-fields of one register, so the per-slot cost is an
//     XOR, a compare, a trailing-zeros count, a table load and an add —
//     independent of how many candidates the tier resolves.
package stackdist

import (
	"fmt"
	"math/bits"
	"sort"
)

// Config describes the family of candidate caches simulated in one pass.
// All candidates share the associativity and the line-granular,
// bit-selection set indexing of the real L2; they differ only in their
// number of sets (Sizes[k] * UnitSets).
type Config struct {
	Sizes    []int // candidate sizes in allocation units; positive powers of two
	UnitSets int   // sets per allocation unit (rtos.AllocUnit); power of two
	Ways     int   // associativity shared by all candidates
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("stackdist: no candidate sizes")
	}
	for _, s := range c.Sizes {
		if s <= 0 || s&(s-1) != 0 {
			return fmt.Errorf("stackdist: candidate size %d not a positive power of two", s)
		}
	}
	if c.UnitSets <= 0 || c.UnitSets&(c.UnitSets-1) != 0 {
		return fmt.Errorf("stackdist: unit sets %d not a positive power of two", c.UnitSets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("stackdist: ways %d not positive", c.Ways)
	}
	return nil
}

// tier resolves a contiguous run of candidates [first, first+n) out of
// one family of per-set recency stacks grouped by the sets of candidate
// first and truncated at the residency of candidate first+n-1.
//
// Stack slots store line<<1|1 ("tagged" lines); a tombstone is 0. The
// XOR of two tagged lines is the lines' XOR shifted up by one, and the
// XOR of a tagged line with a tombstone has bit 0 set, so one
// trailing-zeros count classifies both: tz 0 is the tombstone trash
// lane, tz t>=1 maps to the lane of the largest tier candidate the two
// lines still share a set in (capped at the tier's top lane; lanes are
// shifted up by one for the trash lane).
type tier struct {
	first, n int    // candidate range [first, first+n)
	mask     uint64 // set mask of candidate first: the group key
	tierTop  uint64 // set mask of candidate first+n-1: truncation key
	bits     uint   // log2 of the group key's sets
	capLimit int    // stack length that forces compaction

	packed    bool // packed-accumulator walk usable
	fieldBits uint
	fieldMask uint64
	laneInc   [65]uint64 // tz of tagged XOR -> packed lane increment
	lanes     [65]uint8  // tz of tagged XOR -> lane (fallback walk)
	counts    []uint32   // fallback scratch, n+1 lanes

	// Each group's stack lives in a block of its own, nil until the
	// group's first reference, laid out as
	//
	//	[ header | MRU copy | presence signatures | recency stack, MRU last ]
	//
	// The header word packs the stack length (low 32 bits) and the
	// tombstone count (high 32). The next topSets words hold one 64-bit
	// presence signature per set of the tier's largest candidate:
	// truncation keeps at most W lines per such set, so the signatures
	// stay sparse and a clear bit proves the line is absent from the
	// whole tier — every candidate misses without any walk. Bits are
	// set on append and recomputed on compaction. The MRU copy mirrors
	// the stack's last tagged line so the most common outcome — an
	// immediate re-reference — is decided entirely within the header's
	// cache line. Keeping header, MRU copy, signatures and stack
	// adjacent means one access touches one or two cache lines of
	// metadata instead of three scattered arrays. The stack's room
	// starts at minStack slots and doubles, up to the capLimit+1 slots
	// a stack can reach before compaction, when an append would
	// overflow it; growth copies the block, compaction never shrinks it.
	blocks     [][]uint64 // [group]
	topSets    int        // sets of the tier's largest candidate per group
	topScratch []uint32   // per truncation-set counters for compaction
}

// minStack is the stack room of a group's first block.
const minStack = 8

// Sim simulates every candidate cache for one entity's line stream.
// It is not safe for concurrent use; the parallel harness gives each
// goroutine its own Sim.
type Sim struct {
	sizes  []int    // ascending, deduplicated
	ways   uint64   // shared associativity
	tiers  []*tier  // one or two, covering all candidates
	misses []uint64 // per candidate

	keepScratch []uint64 // survivor buffer for compaction
	accesses    uint64
}

// New builds a simulator. The candidate list is sorted and deduplicated;
// Sizes reports the order in which Misses returns counts.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	uniq := sizes[:1]
	for _, s := range sizes[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	sizes = uniq

	setBits := make([]uint, len(sizes))
	for k, sz := range sizes {
		setBits[k] = uint(bits.Len(uint(sz*cfg.UnitSets)) - 1)
	}
	s := &Sim{
		sizes:  sizes,
		ways:   uint64(cfg.Ways),
		misses: make([]uint64, len(sizes)),
	}
	// Two tiers once there are enough candidates for the split to pay:
	// each tier's stacks are bounded by its own largest candidate, so
	// splitting shrinks the coarse tier's bound by the ratio of the two
	// halves' capacities.
	ranges := [][2]int{{0, len(sizes)}}
	if len(sizes) >= 4 {
		split := len(sizes) / 2
		ranges = [][2]int{{0, split}, {split, len(sizes)}}
	}
	for _, r := range ranges {
		first, end := r[0], r[1]
		t := &tier{
			first:   first,
			n:       end - first,
			mask:    uint64(sizes[first]*cfg.UnitSets - 1),
			tierTop: uint64(sizes[end-1]*cfg.UnitSets - 1),
			bits:    setBits[first],
			counts:  make([]uint32, end-first+1),
		}
		topSetsPerGroup := int((t.tierTop + 1) >> t.bits)
		t.topSets = topSetsPerGroup
		t.capLimit = cfg.Ways*topSetsPerGroup*2 + 32
		t.fieldBits = 63 / uint(t.n+1)
		t.fieldMask = 1<<t.fieldBits - 1
		if t.capLimit < 48 {
			t.capLimit = 48
		}
		// The packed walk needs every lane count to fit its field. A
		// count never exceeds the stack's length, at most capLimit+1;
		// the test bounds it by a full block's words plus a margin.
		t.packed = uint64(2+topSetsPerGroup+t.capLimit+12) < 1<<t.fieldBits
		// tz 0 stays zero: tombstones land in the trash lane.
		for tz := 1; tz <= 64; tz++ {
			lane := 0
			for k := first; k < end; k++ {
				if setBits[k] <= uint(tz-1) {
					lane = k - first + 1
				}
			}
			t.lanes[tz] = uint8(lane)
			t.laneInc[tz] = 1 << (uint(lane) * t.fieldBits)
		}
		t.blocks = make([][]uint64, int(t.mask)+1)
		t.topScratch = make([]uint32, topSetsPerGroup)
		s.tiers = append(s.tiers, t)
	}
	return s, nil
}

// Sizes returns the candidate sizes in the order Misses uses.
func (s *Sim) Sizes() []int { return s.sizes }

// Accesses returns the number of observed line references.
func (s *Sim) Accesses() uint64 { return s.accesses }

// Misses returns the miss count of every candidate cache, in Sizes order.
// The returned slice aliases internal state; callers must not modify it.
func (s *Sim) Misses() []uint64 { return s.misses }

// Access observes one line reference and charges a miss to every
// candidate whose simulated cache would miss it. Writes need no special
// treatment: dirtiness affects writebacks, never hit/miss under LRU.
func (s *Sim) Access(line uint64) {
	s.accesses++
	for _, t := range s.tiers {
		t.access(s, line)
	}
}

// access runs one tier's walk, verdicts and LRU update.
func (t *tier) access(s *Sim, line uint64) {
	g := line & t.mask
	blk := t.blocks[g]
	tagged := line<<1 | 1
	if blk == nil {
		blk = make([]uint64, 2+t.topSets+minStack)
		t.blocks[g] = blk
	} else if blk[1] == tagged {
		// MRU of this tier's group: zero stack distance, every tier
		// candidate hits, recency order already right — decided from
		// the header's cache line alone.
		return
	}
	hdr := blk[0]
	n := int(uint32(hdr))
	dead := int(hdr >> 32)
	bit := sigBit(line)
	sigAt := 2 + int((line&t.tierTop)>>t.bits)
	stackBase := 2 + t.topSets
	if blk[sigAt]&bit == 0 {
		// Provably absent from the tier: cold, or truncated away (and
		// so resident in none of its candidates). Miss everywhere,
		// nothing to tombstone, no walk.
		for k := t.first; k < t.first+t.n; k++ {
			s.misses[k]++
		}
	} else {
		st := blk[stackBase : stackBase+n]
		var tombstoned bool
		if t.packed {
			tombstoned = t.walkPacked(s, tagged, st)
		} else {
			tombstoned = t.walkSlow(s, tagged, st)
		}
		if tombstoned {
			dead++
		}
	}
	if stackBase+n == len(blk) {
		blk = t.grow(g)
	}
	blk[sigAt] |= bit
	blk[stackBase+n] = tagged
	blk[1] = tagged
	n++
	blk[0] = uint64(n) | uint64(dead)<<32
	if dead*2 > n || n > t.capLimit {
		s.compact(t, blk)
	}
}

// grow doubles the stack room of group g's full block, up to the
// capLimit+1 slots a stack can reach before compaction.
func (t *tier) grow(g uint64) []uint64 {
	old := t.blocks[g]
	room := min(2*(len(old)-2-t.topSets), t.capLimit+1)
	blk := make([]uint64, 2+t.topSets+room)
	copy(blk, old)
	t.blocks[g] = blk
	return blk
}

// sigBit hashes a line to its presence-signature bit.
func sigBit(line uint64) uint64 {
	return 1 << (line * 0x9E3779B97F4A7C15 >> 58)
}

// walkPacked scans the stack MRU to LRU, accumulating per-lane conflict
// counts in one register, until it finds the line or proves every tier
// candidate misses. Chunking keeps the inner loop tight: between
// chunks, the walk bails out once the tier's largest candidate is
// saturated — from there every tier candidate misses, and over-counting
// past saturation cannot change a verdict (counts only grow and
// verdicts compare against the fixed associativity). If the line was
// seen but not reached (saturation), a plain scan finds and tombstones
// it; if it is absent altogether (cold or truncated, which means
// resident nowhere in the tier), every candidate misses too, so the
// verdict needs no membership index.
func (t *tier) walkPacked(s *Sim, tagged uint64, st []uint64) bool {
	exitShift := uint(t.n) * t.fieldBits
	var cnt uint64
	i := len(st) - 1
	found := false
scan:
	for i >= 0 && cnt>>exitShift&t.fieldMask < s.ways {
		lo := i - 64
		if lo < -1 {
			lo = -1
		}
		for ; i > lo; i-- {
			v := st[i]
			if v == tagged {
				found = true
				break scan
			}
			cnt += t.laneInc[bits.TrailingZeros64(tagged^v)]
		}
	}
	if found {
		if cnt&^t.fieldMask != 0 {
			// count for candidate first+j-1 = conflicts in lanes >= j,
			// accumulated top-down. (All-zero conflict lanes — only
			// tombstones seen — skip straight to all-hit.)
			cum := uint64(0)
			for j := t.n; j >= 1; j-- {
				cum += cnt >> (uint(j) * t.fieldBits) & t.fieldMask
				if cum >= s.ways {
					s.misses[t.first+j-1]++
				}
			}
		}
	} else {
		for k := t.first; k < t.first+t.n; k++ {
			s.misses[k]++
		}
		// Saturation stopped the walk: the line may still sit deeper in
		// the stack and must be tombstoned before its fresh append.
		for ; i >= 0; i-- {
			if st[i] == tagged {
				break
			}
		}
	}
	if i >= 0 {
		st[i] = 0
		return true
	}
	return false
}

// walkSlow is the flat-counter variant for geometries whose stack bound
// exceeds the packed bit-field range.
func (t *tier) walkSlow(s *Sim, tagged uint64, st []uint64) bool {
	counts := t.counts
	for k := range counts {
		counts[k] = 0
	}
	top := t.n
	i := len(st) - 1
	found := false
scan:
	for i >= 0 && uint64(counts[top]) < s.ways {
		lo := i - 64
		if lo < -1 {
			lo = -1
		}
		for ; i > lo; i-- {
			v := st[i]
			if v == tagged {
				found = true
				break scan
			}
			counts[t.lanes[bits.TrailingZeros64(tagged^v)]]++
		}
	}
	if found {
		cum := uint64(0)
		for j := top; j >= 1; j-- {
			cum += uint64(counts[j])
			if cum >= s.ways {
				s.misses[t.first+j-1]++
			}
		}
	} else {
		for k := t.first; k < t.first+t.n; k++ {
			s.misses[k]++
		}
		for ; i >= 0; i-- {
			if st[i] == tagged {
				break
			}
		}
	}
	if i >= 0 {
		st[i] = 0
		return true
	}
	return false
}

// compact rewrites one group without tombstones and truncates it to the
// tier's largest candidate's resident lines: a dropped line is resident
// in none of the tier's candidates, so forgetting it preserves every
// future verdict — its next reference walks the whole (bounded) stack,
// concludes absent, and misses everywhere in the tier, exactly like a
// cold line.
func (s *Sim) compact(t *tier, blk []uint64) {
	stackBase := 2 + t.topSets
	n := int(uint32(blk[0]))
	st := blk[stackBase : stackBase+n]
	tsc := t.topScratch
	for i := range tsc {
		tsc[i] = 0
	}
	kept := s.keepScratch[:0]
	for i := len(st) - 1; i >= 0; i-- {
		v := st[i]
		if v == 0 {
			continue
		}
		ts := (v >> 1 & t.tierTop) >> t.bits
		if uint64(tsc[ts]) >= s.ways {
			continue
		}
		tsc[ts]++
		kept = append(kept, v)
	}
	// kept is MRU-first; the stack stores MRU last. Rebuild the
	// presence signatures from the survivors, clearing the bits of
	// everything dropped.
	for i := 0; i < t.topSets; i++ {
		blk[2+i] = 0
	}
	for i, v := range kept {
		st[len(kept)-1-i] = v
		line := v >> 1
		blk[2+int((line&t.tierTop)>>t.bits)] |= sigBit(line)
	}
	blk[0] = uint64(len(kept))
	if len(kept) > 0 {
		blk[1] = kept[0]
	} else {
		blk[1] = 0
	}
	s.keepScratch = kept[:0]
}
