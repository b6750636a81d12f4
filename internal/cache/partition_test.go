package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

func mustTable(t *testing.T, totalSets, defSets int) *PartitionTable {
	t.Helper()
	tab, err := NewPartitionTable(totalSets, "rt", defSets)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewPartitionTableErrors(t *testing.T) {
	if _, err := NewPartitionTable(100, "d", 4); err == nil {
		t.Error("non-power-of-two totalSets accepted")
	}
	if _, err := NewPartitionTable(0, "d", 4); err == nil {
		t.Error("zero totalSets accepted")
	}
	if _, err := NewPartitionTable(64, "d", 3); err == nil {
		t.Error("non-power-of-two default accepted")
	}
	if _, err := NewPartitionTable(64, "d", 128); err == nil {
		t.Error("oversized default accepted")
	}
}

func TestAddPartitionPacking(t *testing.T) {
	tab := mustTable(t, 64, 4)
	id1, err := tab.AddPartition("t0", 8)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tab.AddPartition("t1", 16)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := tab.Partition(id1), tab.Partition(id2)
	if p1.BaseSet != 4 || p1.NumSets != 8 {
		t.Errorf("p1 = %+v", p1)
	}
	if p2.BaseSet != 12 || p2.NumSets != 16 {
		t.Errorf("p2 = %+v", p2)
	}
	if tab.AllocatedSets() != 28 || tab.FreeSets() != 36 {
		t.Errorf("allocated/free = %d/%d", tab.AllocatedSets(), tab.FreeSets())
	}
	if err := tab.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if len(tab.Partitions()) != 3 {
		t.Errorf("partitions = %d, want 3", len(tab.Partitions()))
	}
}

func TestAddPartitionOvercommit(t *testing.T) {
	tab := mustTable(t, 16, 8)
	if _, err := tab.AddPartition("big", 16); err == nil {
		t.Error("over-commit accepted")
	}
	if _, err := tab.AddPartition("bad", 3); err == nil {
		t.Error("non-power-of-two partition accepted")
	}
	if _, err := tab.AddPartition("ok", 8); err != nil {
		t.Errorf("exact fill rejected: %v", err)
	}
}

func TestAssignAndPartitionOf(t *testing.T) {
	tab := mustTable(t, 64, 4)
	id, _ := tab.AddPartition("t0", 8)
	if err := tab.Assign(5, id); err != nil {
		t.Fatal(err)
	}
	if tab.PartitionOf(5) != id {
		t.Error("assigned region maps to wrong partition")
	}
	if tab.PartitionOf(99) != tab.DefaultID() {
		t.Error("unassigned region should map to default partition")
	}
	if err := tab.Assign(1, 42); err == nil {
		t.Error("assign to unknown partition accepted")
	}
}

func TestMapSetWithinPartition(t *testing.T) {
	tab := mustTable(t, 64, 4)
	id, _ := tab.AddPartition("t0", 8) // base 4, size 8
	tab.Assign(7, id)
	for set := uint64(0); set < 64; set++ {
		got, part := tab.MapSet(set, 7)
		if part != id {
			t.Fatalf("partition = %d, want %d", part, id)
		}
		if got < 4 || got >= 12 {
			t.Fatalf("MapSet(%d) = %d outside [4,12)", set, got)
		}
		if got != 4+(set&7) {
			t.Fatalf("MapSet(%d) = %d, want %d", set, got, 4+(set&7))
		}
	}
}

func TestPartitionIsolation(t *testing.T) {
	// Two entities hammering the same conventional sets must not evict
	// each other once partitioned — the core claim of the paper.
	cfg := Config{Name: "l2", Sets: 64, Ways: 2, LineSize: 64}

	runMisses := func(partitioned bool) (uint64, uint64) {
		c := New(cfg)
		if partitioned {
			tab := mustTable(t, 64, 4)
			pA, _ := tab.AddPartition("A", 16)
			pB, _ := tab.AddPartition("B", 16)
			tab.Assign(0, pA)
			tab.Assign(1, pB)
			c.SetPartitionTable(tab)
		}
		// Entity A: loops over a small working set (16 lines).
		// Entity B: streams over a large range, trashing every set.
		for iter := 0; iter < 50; iter++ {
			for i := 0; i < 16; i++ {
				c.Access(trace.Access{Addr: uint64(i * 64), Size: 4, Region: 0})
			}
			for i := 0; i < 256; i++ {
				c.Access(trace.Access{Addr: 1 << 20, Size: 4, Region: 1})
				c.Access(trace.Access{Addr: uint64(1<<20 + iter*256*64 + i*64), Size: 4, Region: 1})
			}
		}
		return c.RegionStats(0).Misses, c.RegionStats(1).Misses
	}

	sharedA, _ := runMisses(false)
	partA, _ := runMisses(true)
	if partA > 16 {
		t.Errorf("partitioned entity A misses = %d, want only cold misses (<=16)", partA)
	}
	if sharedA < 10*partA {
		t.Errorf("shared entity A misses = %d, expected heavy interference vs %d", sharedA, partA)
	}
}

func TestSetPartitionTableFlushesAndChecksGeometry(t *testing.T) {
	c := New(Config{Name: "l2", Sets: 64, Ways: 2, LineSize: 64})
	c.Access(trace.Access{Addr: 0, Size: 4})
	tab := mustTable(t, 64, 4)
	c.SetPartitionTable(tab)
	if c.OccupiedLines() != 0 {
		t.Error("installing a table must flush the cache")
	}
	if c.PartitionTable() != tab {
		t.Error("PartitionTable accessor mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched table geometry accepted")
		}
	}()
	bad := mustTable(t, 128, 4)
	c.SetPartitionTable(bad)
}

func TestPartitionStats(t *testing.T) {
	c := New(Config{Name: "l2", Sets: 64, Ways: 2, LineSize: 64})
	tab := mustTable(t, 64, 4)
	pA, _ := tab.AddPartition("A", 8)
	tab.Assign(0, pA)
	c.SetPartitionTable(tab)

	c.Access(trace.Access{Addr: 0, Size: 4, Region: 0})
	c.Access(trace.Access{Addr: 0, Size: 4, Region: 0})
	c.Access(trace.Access{Addr: 4096, Size: 4, Region: 9}) // default part

	if ps := c.PartitionStats(pA); ps.Accesses != 2 || ps.Misses != 1 || ps.Hits != 1 {
		t.Errorf("partition A stats = %+v", ps)
	}
	if ps := c.PartitionStats(tab.DefaultID()); ps.Accesses != 1 {
		t.Errorf("default partition stats = %+v", ps)
	}
	if ps := c.PartitionStats(99); ps.Accesses != 0 {
		t.Error("out-of-range partition stats should be zero")
	}
}

// Property: the partition mapper is confined (every mapped set lies inside
// the owning partition) and surjective onto the partition for conventional
// set indices 0..NumSets-1.
func TestMapSetConfinementProperty(t *testing.T) {
	f := func(seedSets uint8, regionRaw uint8) bool {
		tab, err := NewPartitionTable(256, "d", 4)
		if err != nil {
			return false
		}
		sizes := []int{1, 2, 4, 8, 16, 32}
		ids := make([]int, 0, 6)
		for i, s := range sizes {
			id, err := tab.AddPartition("p", s)
			if err != nil {
				return false
			}
			ids = append(ids, id)
			tab.Assign(mem.RegionID(i), id)
		}
		region := mem.RegionID(int(regionRaw) % len(ids))
		p := tab.Partition(ids[region])
		seen := make(map[uint64]bool)
		for set := uint64(0); set < 256; set++ {
			got, id := tab.MapSet(set, region)
			if id != ids[region] {
				return false
			}
			if got < uint64(p.BaseSet) || got >= uint64(p.BaseSet+p.NumSets) {
				return false
			}
			seen[got] = true
		}
		return len(seen) == p.NumSets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with a partition table installed, an entity's miss count
// equals the miss count of a standalone cache of the partition's size fed
// the same stream — the compositionality property the optimizer relies on.
func TestPartitionEqualsIsolatedCacheProperty(t *testing.T) {
	f := func(seed int64, szExp uint8) bool {
		numSets := 1 << (szExp%4 + 1) // 2..16 sets
		tab, err := NewPartitionTable(64, "d", 4)
		if err != nil {
			return false
		}
		pid, err := tab.AddPartition("A", numSets)
		if err != nil {
			return false
		}
		tab.Assign(0, pid)

		big := New(Config{Name: "l2", Sets: 64, Ways: 2, LineSize: 64})
		big.SetPartitionTable(tab)
		iso := New(Config{Name: "iso", Sets: numSets, Ways: 2, LineSize: 64})

		// Entity A's stream and entity B's alternate in the shared cache.
		a := randomStream(0, 1<<14, 5000, uint64(seed)|1, 0)
		b := randomStream(1<<20, 1<<16, 5000, uint64(seed)*7|1, 1)
		for i := range a {
			big.Access(a[i])
			iso.Access(a[i])
			big.Access(b[i])
		}
		return big.RegionStats(0).Misses == iso.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomStream returns count 4-byte reads of region spread uniformly
// over the ws bytes from base by a seeded xorshift64* generator, the
// pattern of irregular table lookups.
func randomStream(base, ws, count, seed uint64, region mem.RegionID) []trace.Access {
	out := make([]trace.Access, count)
	state := seed | 1
	for i := range out {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		off := state * 0x2545F4914F6CDD1D % (ws / 4) * 4
		out[i] = trace.Access{Addr: base + off, Size: 4, Op: trace.Read, Region: region}
	}
	return out
}

// TestAccessTwoLineSplitUnderPartition verifies that an access straddling
// a line boundary references both lines, each translated through the
// owning entity's partition — counted as two accesses in that partition,
// landing in its exclusive set range.
func TestAccessTwoLineSplitUnderPartition(t *testing.T) {
	table, err := NewPartitionTable(64, "rt", 4)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := table.AddPartition("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	const regionA = mem.RegionID(7)
	if err := table.Assign(regionA, pa); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Name: "l2", Sets: 64, Ways: 2, LineSize: 64})
	c.SetPartitionTable(table)

	// 8-byte access at line end: lines 0x10 and 0x11, both owned by A.
	hit := c.Access(trace.Access{Addr: 0x10*64 + 60, Size: 8, Op: trace.Write, Region: regionA})
	if hit {
		t.Error("cold straddling access reported as hit")
	}
	ps := c.PartitionStats(pa)
	if ps.Accesses != 2 || ps.Misses != 2 {
		t.Errorf("partition stats after straddle = %+v, want 2 accesses, 2 misses", ps)
	}
	if es := c.RegionStats(regionA); es.Accesses != 2 || es.Misses != 2 {
		t.Errorf("region stats after straddle = %+v", es)
	}
	// Both lines must live inside partition A's set range [4, 12).
	base := table.Partition(pa).BaseSet
	for _, line := range []uint64{0x10, 0x11} {
		set, part := table.MapSet(line&c.Config().SetMask(), regionA)
		if part != pa || set < uint64(base) || set >= uint64(base+8) {
			t.Errorf("line %#x mapped to set %d partition %d", line, set, part)
		}
		if !c.Probe(line*64, regionA) {
			t.Errorf("line %#x not resident after fill", line)
		}
	}
	// Warm re-access: both lines hit, in the same partition.
	if !c.Access(trace.Access{Addr: 0x10*64 + 60, Size: 8, Op: trace.Read, Region: regionA}) {
		t.Error("warm straddling access missed")
	}
	ps = c.PartitionStats(pa)
	if ps.Accesses != 4 || ps.Hits != 2 {
		t.Errorf("partition stats after warm straddle = %+v, want 4 accesses, 2 hits", ps)
	}
}
