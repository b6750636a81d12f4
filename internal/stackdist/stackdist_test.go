package stackdist

import (
	"testing"

	"repro/internal/cache"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Sizes: nil, UnitSets: 8, Ways: 4},
		{Sizes: []int{3}, UnitSets: 8, Ways: 4},
		{Sizes: []int{0}, UnitSets: 8, Ways: 4},
		{Sizes: []int{1}, UnitSets: 0, Ways: 4},
		{Sizes: []int{1}, UnitSets: 3, Ways: 4},
		{Sizes: []int{1}, UnitSets: 8, Ways: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestNewSortsAndDeduplicates(t *testing.T) {
	s, err := New(Config{Sizes: []int{4, 1, 2, 4, 1}, UnitSets: 8, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	got := s.Sizes()
	if len(got) != len(want) {
		t.Fatalf("sizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
}

func TestColdMissesOnly(t *testing.T) {
	// A working set that fits the smallest candidate leaves only cold
	// misses everywhere.
	s, _ := New(Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4})
	for iter := 0; iter < 20; iter++ {
		for i := uint64(0); i < 8; i++ {
			s.Access(i)
		}
	}
	if s.Accesses() != 160 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	for k, m := range s.Misses() {
		if m != 8 {
			t.Errorf("misses at size %d = %d, want 8 cold", s.Sizes()[k], m)
		}
	}
}

func TestStreamMissesEverywhere(t *testing.T) {
	s, _ := New(Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4})
	for i := uint64(0); i < 2000; i++ {
		s.Access(1000 + i)
	}
	for k, m := range s.Misses() {
		if m != 2000 {
			t.Errorf("misses at size %d = %d, want 2000", s.Sizes()[k], m)
		}
	}
}

func TestCurveMonotoneForLoops(t *testing.T) {
	s, _ := New(Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 4})
	// Loop over 100 lines: fits 4 units (128 lines) but not 1 unit (32).
	for iter := 0; iter < 30; iter++ {
		for i := uint64(0); i < 100; i++ {
			s.Access(i)
		}
	}
	m := s.Misses()
	for k := 1; k < len(m); k++ {
		if m[k] > m[k-1] {
			t.Errorf("curve not non-increasing at %d: %v", k, m)
		}
	}
	if m[len(m)-1] != 100 {
		t.Errorf("largest size should leave only cold misses, got %v", m)
	}
	if m[0] <= 100 {
		t.Errorf("smallest size should thrash, got %v", m[0])
	}
}

// xorshift64* — deterministic PRNG so the differential test is stable.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// oracle is the bank-of-caches reference: one real cache.Cache per
// candidate size, fed the same line stream.
type oracle struct {
	sizes []int
	banks []*cache.Cache
}

func newOracle(cfg Config) *oracle {
	o := &oracle{sizes: append([]int(nil), cfg.Sizes...)}
	for _, s := range cfg.Sizes {
		o.banks = append(o.banks, cache.New(cache.Config{
			Name:     "oracle",
			Sets:     s * cfg.UnitSets,
			Ways:     cfg.Ways,
			LineSize: 64,
		}))
	}
	return o
}

func (o *oracle) access(line uint64) {
	for _, c := range o.banks {
		c.AccessLine(line, false, 0)
	}
}

func (o *oracle) misses() []uint64 {
	out := make([]uint64, len(o.banks))
	for k, c := range o.banks {
		out[k] = c.Stats().Misses
	}
	return out
}

func diffTest(t *testing.T, cfg Config, stream []uint64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(cfg)
	for _, line := range stream {
		s.Access(line)
		o.access(line)
	}
	want := o.misses()
	got := s.Misses()
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("size %d: stackdist %d misses, bank-of-caches %d",
				s.Sizes()[k], got[k], want[k])
		}
	}
}

// TestMatchesBankOfCachesRandom is the core exactness claim: on random
// streams with assorted locality profiles, the single-pass simulator
// returns bit-identical miss counts to real LRU caches of every
// candidate geometry.
func TestMatchesBankOfCachesRandom(t *testing.T) {
	cfgs := []Config{
		{Sizes: []int{1, 2, 4, 8, 16, 32, 64, 128}, UnitSets: 8, Ways: 4},
		{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 1},
		{Sizes: []int{1, 4, 16}, UnitSets: 16, Ways: 8},
		{Sizes: []int{2}, UnitSets: 4, Ways: 2},
	}
	for ci, cfg := range cfgs {
		r := rng(0x9E3779B97F4A7C15 + uint64(ci))
		var stream []uint64
		for i := 0; i < 50000; i++ {
			x := r.next()
			var line uint64
			switch x % 4 {
			case 0: // tight working set: mostly hits
				line = x % 64
			case 1: // medium working set around the candidate capacities
				line = x % 4096
			case 2: // streaming, no reuse
				line = 1 << 20 << (x % 8) // spread across high tags
				line += x % (1 << 18)
			default: // sequential bursts
				line = uint64(i/7) % 8192
			}
			stream = append(stream, line)
		}
		diffTest(t, cfg, stream)
	}
}

// TestMatchesBankOfCachesTruncation stresses stack truncation: a
// footprint far beyond the largest candidate's capacity, with
// re-references after gaps of every length, so lines are constantly
// dropped from the stacks and later re-accessed.
func TestMatchesBankOfCachesTruncation(t *testing.T) {
	cfg := Config{Sizes: []int{1, 2, 4}, UnitSets: 4, Ways: 2}
	// Largest candidate: 16 sets x 2 ways = 32 lines. Touch thousands.
	r := rng(42)
	var stream []uint64
	for i := 0; i < 60000; i++ {
		x := r.next()
		switch x % 3 {
		case 0: // huge streaming footprint
			stream = append(stream, x%8192)
		case 1: // medium set, revisited across truncations
			stream = append(stream, x%128)
		default: // small hot set
			stream = append(stream, x%16)
		}
	}
	diffTest(t, cfg, stream)
}

// TestMatchesBankOfCachesAdversarial exercises the early-exit path: long
// reuse distances where the largest candidate accumulates a full set of
// conflicts before the walk finds the line.
func TestMatchesBankOfCachesAdversarial(t *testing.T) {
	cfg := Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 2}
	var stream []uint64
	// Repeatedly touch a victim line, then a sweep mapping to its set in
	// every candidate (same low bits), then the victim again.
	const victim = 0x40
	sets := uint64(8 * 8)
	for round := 0; round < 50; round++ {
		stream = append(stream, victim)
		for j := uint64(1); j <= uint64(round%7)+1; j++ {
			stream = append(stream, victim+j*sets)
		}
	}
	// And a pure conflict storm on one set.
	for i := uint64(0); i < 3000; i++ {
		stream = append(stream, (i%97)*sets)
	}
	diffTest(t, cfg, stream)
}

// TestBlocksFollowTheStream pins the profiler's footprint: a stream
// touching k of a tier's G groups leaves G−k groups without a block,
// and each block's stack room stays under twice the longest stack the
// group held plus minStack, and within the capLimit+1 slots a stack can
// reach — while the verdicts still match the bank of caches.
func TestBlocksFollowTheStream(t *testing.T) {
	cfg := Config{Sizes: []int{1, 2, 4, 8, 16, 32, 64, 128}, UnitSets: 8, Ways: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(cfg)
	// Lines keep their low 7 bits in {3, 40, 77, 120}: 4 of the fine
	// tier's 128 groups and 3 of the coarse tier's 8 ({3, 0, 5}).
	lows := []uint64{3, 40, 77, 120}
	high := make([][]int, len(s.tiers))
	for ti, tr := range s.tiers {
		high[ti] = make([]int, len(tr.blocks))
	}
	r := rng(7)
	for i := 0; i < 40000; i++ {
		x := r.next()
		var hi uint64
		switch x % 3 {
		case 0: // hot lines: reuse, tombstones and compaction
			hi = x >> 8 % 16
		case 1: // a working set around the largest candidate
			hi = x >> 8 % 512
		default: // streaming: stacks grow to the truncation bound
			hi = uint64(i)
		}
		line := hi<<7 | lows[x>>4%uint64(len(lows))]
		s.Access(line)
		o.access(line)
		for ti, tr := range s.tiers {
			g := line & tr.mask
			high[ti][g] = max(high[ti][g], int(uint32(tr.blocks[g][0])))
		}
	}
	for k, want := range o.misses() {
		if got := s.Misses()[k]; got != want {
			t.Errorf("size %d: stackdist %d misses, bank-of-caches %d", s.Sizes()[k], got, want)
		}
	}
	for ti, tr := range s.tiers {
		touched := map[uint64]bool{}
		for _, low := range lows {
			touched[low&tr.mask] = true
		}
		full := 0
		for g, blk := range tr.blocks {
			if !touched[uint64(g)] {
				if blk != nil {
					t.Errorf("tier %d: untouched group %d holds a %d-word block", ti, g, len(blk))
				}
				continue
			}
			if blk == nil {
				t.Errorf("tier %d: touched group %d has no block", ti, g)
				continue
			}
			room := len(blk) - 2 - tr.topSets
			if room >= 2*high[ti][g]+minStack || room > tr.capLimit+1 {
				t.Errorf("tier %d group %d: stack room %d for a high-water length %d (compaction at %d)",
					ti, g, room, high[ti][g], tr.capLimit)
			}
			if room == tr.capLimit+1 {
				full++
			}
		}
		// The streaming third of the stream drives stacks to the
		// truncation bound, so growth runs all the way to the clamp.
		if full == 0 {
			t.Errorf("tier %d: no block grew to the %d slots a stack can reach", ti, tr.capLimit+1)
		}
	}
}
