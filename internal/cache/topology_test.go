package cache

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestConfigValidateNamesFieldAndValue pins the validation contract: a
// non-power-of-two geometry is rejected with an error naming the field
// and the offending value (a bad set count or line size would otherwise
// produce wrong index masks downstream).
func TestConfigValidateNamesFieldAndValue(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"sets not pow2", Config{Name: "l2", Sets: 3, Ways: 4, LineSize: 64}, "sets 3"},
		{"sets zero", Config{Name: "l2", Sets: 0, Ways: 4, LineSize: 64}, "sets 0"},
		{"line size not pow2", Config{Name: "l2", Sets: 64, Ways: 4, LineSize: 48}, "line size 48"},
		{"line size zero", Config{Name: "l2", Sets: 64, Ways: 4, LineSize: 0}, "line size 0"},
		{"ways zero", Config{Name: "l2", Sets: 64, Ways: 0, LineSize: 64}, "ways 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error naming %q", c.cfg, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name the field and value %q", err, c.want)
			}
			if !strings.Contains(err.Error(), c.cfg.Name) {
				t.Errorf("error %q does not name the cache %q", err, c.cfg.Name)
			}
		})
	}
	if err := (Config{Name: "ok", Sets: 64, Ways: 3, LineSize: 64}).Validate(); err != nil {
		t.Errorf("non-power-of-two WAYS are legal (victim scan is linear): %v", err)
	}
}

func l1Spec() LevelSpec {
	return LevelSpec{Name: "l1", Scope: ScopePrivate, Sets: 8, Ways: 2, LineSize: 64}
}
func l2PrivSpec() LevelSpec {
	return LevelSpec{Name: "l2", Scope: ScopePrivate, Sets: 16, Ways: 2, LineSize: 64, HitLat: 8}
}
func l3Spec() LevelSpec {
	return LevelSpec{Name: "l3", Scope: ScopeShared, Sets: 64, Ways: 4, LineSize: 64, HitLat: 20, Partition: true}
}

// TestTopologyValidate enumerates the structural rejections.
func TestTopologyValidate(t *testing.T) {
	cluster := func(n int) LevelSpec {
		return LevelSpec{Name: "lc", Scope: ClusterScope(n), Sets: 16, Ways: 2, LineSize: 64}
	}
	cases := []struct {
		name string
		topo Topology
		cpus int
		want string
	}{
		{"no levels", Topology{}, 4, "no levels"},
		{"unnamed level", Topology{Levels: []LevelSpec{{Scope: ScopeShared, Sets: 8, Ways: 1, LineSize: 64}}}, 4, "no name"},
		{"duplicate names", Topology{Levels: []LevelSpec{l1Spec(), func() LevelSpec { l := l3Spec(); l.Name = "l1"; return l }()}}, 4, "duplicate level name"},
		{"cluster does not divide cpus", Topology{Levels: []LevelSpec{l1Spec(), cluster(2), l3Spec()}}, 3, "3 CPUs not divisible by cluster size 2"},
		{"bad scope", Topology{Levels: []LevelSpec{{Name: "x", Scope: "sharedish", Sets: 8, Ways: 1, LineSize: 64}}}, 4, "unknown scope"},
		{"non-nesting scopes", Topology{Levels: []LevelSpec{func() LevelSpec { c := cluster(2); c.Name = "a"; return c }(), func() LevelSpec { c := cluster(3); c.Name = "b"; return c }(), func() LevelSpec { l := l3Spec(); return l }()}}, 6, "does not nest"},
		{"narrowing scopes", Topology{Levels: []LevelSpec{func() LevelSpec { l := l3Spec(); l.Name = "s"; l.Partition = false; return l }(), func() LevelSpec { l := l1Spec(); l.Name = "p"; return l }(), l3Spec()}}, 4, "does not nest"},
		{"private root", Topology{Levels: []LevelSpec{l1Spec()}}, 4, "must be shared"},
		{"partition on private level", Topology{Levels: []LevelSpec{func() LevelSpec { l := l1Spec(); l.Partition = true; return l }(), l3Spec()}}, 4, `partition level "l1" must be shared`},
		{"two partition levels", Topology{Levels: []LevelSpec{func() LevelSpec { l := l3Spec(); l.Name = "s0"; return l }(), l3Spec()}}, 4, ""},
		{"per-cpu on shared level", Topology{Levels: []LevelSpec{func() LevelSpec { l := l3Spec(); l.PerCPU = map[int]Geometry{0: {Sets: 8}}; return l }()}}, 4, "per-CPU geometry"},
		{"per-cpu out of range", Topology{Levels: []LevelSpec{func() LevelSpec { l := l1Spec(); l.PerCPU = map[int]Geometry{7: {Sets: 16}}; return l }(), l3Spec()}}, 4, "out of range"},
		{"per-cpu bad geometry", Topology{Levels: []LevelSpec{func() LevelSpec { l := l1Spec(); l.PerCPU = map[int]Geometry{0: {Sets: 3}}; return l }(), l3Spec()}}, 4, "sets 3"},
		{"bad level geometry", Topology{Levels: []LevelSpec{func() LevelSpec { l := l3Spec(); l.Sets = 5; return l }()}}, 4, "sets 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.topo.Validate(c.cpus)
			if err == nil {
				t.Fatalf("Validate = nil, want error about %q", c.name)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}

	good := []Topology{
		{Levels: []LevelSpec{l3Spec()}},                         // single shared level
		{Levels: []LevelSpec{l1Spec(), l3Spec()}},               // classic
		{Levels: []LevelSpec{l1Spec(), l2PrivSpec(), l3Spec()}}, // 3-level private
		{Levels: []LevelSpec{l1Spec(), cluster(2), l3Spec()}},   // clustered
		TwoLevel(Config{Sets: 8, Ways: 2, LineSize: 64}, Config{Sets: 64, Ways: 4, LineSize: 64}, 1, 8),
	}
	for i, topo := range good {
		if err := topo.Validate(4); err != nil {
			t.Errorf("good topology %d rejected: %v", i, err)
		}
	}
}

// TestSingleLevelTopology is the "CPUs straight to one shared cache,
// then memory" edge: every access takes the burst-merged bypass class,
// exactly like the legacy L1-less hierarchy.
func TestSingleLevelTopology(t *testing.T) {
	topo := Topology{Levels: []LevelSpec{{Name: "l2", Scope: ScopeShared, Sets: 64, Ways: 4, LineSize: 64, HitLat: 8}}}
	tr, err := topo.Build(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cache(0, 0) != tr.Cache(0, 1) {
		t.Fatal("shared level must be one instance")
	}
	m := &FixedMem{Latency: 50}
	h := tr.Hierarchy(0, m)
	if h.Leaf() != nil {
		t.Error("single shared level has no private leaf")
	}
	if lat := h.AccessAt(trace.Access{Addr: 0, Size: 4}, 0); lat != 8+50 {
		t.Errorf("cold latency = %d, want 58", lat)
	}
	if lat := h.AccessAt(trace.Access{Addr: 0, Size: 4}, 0); lat != 1 {
		t.Errorf("burst latency = %d, want 1", lat)
	}
	h.AccessAt(trace.Access{Addr: 64, Size: 4}, 0)
	if lat := h.AccessAt(trace.Access{Addr: 0, Size: 4}, 0); lat != 8 {
		t.Errorf("warm latency = %d, want 8", lat)
	}
	if _, sets, _, mergeLat := h.FastSpec(); sets != 0 || mergeLat != 1 {
		t.Errorf("FastSpec = sets %d mergeLat %d, want 0/1 (no cacheable batching)", sets, mergeLat)
	}

	// A dirty eviction from the (shared) leaf is a root writeback, not a
	// leaf-to-next one: it posts to memory and must not count as a
	// private-leaf writeback (the legacy L1-less hierarchy's semantics).
	tiny, err := Topology{Levels: []LevelSpec{{Name: "l2", Scope: ScopeShared, Sets: 1, Ways: 1, LineSize: 64, HitLat: 8}}}.Build(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := &FixedMem{Latency: 50}
	h2 := tiny.Hierarchy(0, m2)
	h2.AccessAt(trace.Access{Addr: 0, Size: 4, Op: trace.Write}, 0)
	h2.AccessAt(trace.Access{Addr: 64, Size: 4, Op: trace.Read}, 0)
	if h2.WritebacksToL2 != 0 || h2.WritebacksToMem != 1 || m2.Writes != 1 {
		t.Errorf("single-level dirty eviction: wbL2=%d wbMem=%d posted=%d, want 0/1/1",
			h2.WritebacksToL2, h2.WritebacksToMem, m2.Writes)
	}
}

// TestThreeLevelWalkAndVictimOrdering drives a 3-level path with
// single-line levels so every eviction is forced, and checks the
// inclusive walk's latency accumulation plus the victim cascade order:
// a dirty leaf victim is written into L2 BEFORE the demand access
// displaces it again, so it ripples L2→L3→memory exactly once per
// level, in order.
func TestThreeLevelWalkAndVictimOrdering(t *testing.T) {
	l1 := New(Config{Name: "l1", Sets: 1, Ways: 1, LineSize: 64})
	l2 := New(Config{Name: "l2", Sets: 1, Ways: 1, LineSize: 64})
	l3 := New(Config{Name: "l3", Sets: 1, Ways: 1, LineSize: 64})
	m := &FixedMem{Latency: 50}
	h := NewHierarchy([]*Cache{l1, l2, l3}, 2, []uint64{1, 8, 20}, m)

	// Cold write of line A: misses all three levels, fills all three.
	if lat := h.AccessAt(trace.Access{Addr: 0, Size: 4, Op: trace.Write}, 0); lat != 1+8+20+50 {
		t.Errorf("cold 3-level latency = %d, want 79", lat)
	}
	if h.DemandFills != 1 || m.Reads != 1 {
		t.Errorf("fills=%d reads=%d, want 1/1", h.DemandFills, m.Reads)
	}
	// Read of line B (same sets everywhere): the dirty A is evicted from
	// L1 and written back into L2 (hit: L2 still holds A) BEFORE B's
	// demand walk displaces A from L2 — that eviction finds A dirty and
	// cascades it into L3, whose own eviction finds A dirty again and
	// posts it to memory. One writeback at every boundary.
	if lat := h.AccessAt(trace.Access{Addr: 64, Size: 4, Op: trace.Read}, 100); lat != 1+8+20+50 {
		t.Errorf("conflict 3-level latency = %d, want 79", lat)
	}
	if h.WritebacksToL2 != 1 {
		t.Errorf("leaf writebacks = %d, want 1", h.WritebacksToL2)
	}
	if h.WritebacksToMem != 1 || m.Writes != 1 {
		t.Errorf("root writebacks = %d (posted %d), want 1", h.WritebacksToMem, m.Writes)
	}
	// The L2 saw: A's fill (read), A's writeback (write hit), B's fill
	// (read). Had the demand access come first, the writeback would have
	// missed and allocated A again.
	if s := l2.OpStats(trace.Write); s.Accesses != 1 || s.Hits != 1 {
		t.Errorf("L2 writeback insertion = %+v, want 1 write hit", s)
	}
	if l3.Stats().Evictions != 1 || l3.Stats().Writebacks != 1 {
		t.Errorf("L3 stats = %+v, want the cascaded dirty eviction", l3.Stats())
	}
	// B now resident everywhere: an L1 hit costs only the probe.
	if lat := h.AccessAt(trace.Access{Addr: 64, Size: 4}, 200); lat != 1 {
		t.Errorf("leaf hit latency = %d, want 1", lat)
	}
	// A is only in memory: a re-read walks all levels again.
	if lat := h.AccessAt(trace.Access{Addr: 0, Size: 4}, 300); lat != 1+8+20+50 {
		t.Errorf("re-read latency = %d, want 79", lat)
	}
}

// TestClusterTreeSharing checks cluster-scope instantiation: one cache
// per N CPUs, shared within the cluster, distinct across clusters.
func TestClusterTreeSharing(t *testing.T) {
	topo := Topology{Levels: []LevelSpec{
		l1Spec(),
		{Name: "l2", Scope: ClusterScope(2), Sets: 16, Ways: 2, LineSize: 64, HitLat: 8},
		l3Spec(),
	}}
	tr, err := topo.Build(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cache(0, 0) == tr.Cache(0, 1) {
		t.Error("private leaves must be distinct")
	}
	if tr.Cache(1, 0) != tr.Cache(1, 1) || tr.Cache(1, 2) != tr.Cache(1, 3) {
		t.Error("cluster mates must share one L2")
	}
	if tr.Cache(1, 1) == tr.Cache(1, 2) {
		t.Error("clusters must not share L2s")
	}
	if tr.Cache(2, 0) != tr.Cache(2, 3) {
		t.Error("root must be shared by all")
	}
	if tr.PartitionCache() != tr.Cache(2, 0) {
		t.Error("partition cache must be the marked shared level")
	}
	// A line loaded through CPU0 is a cluster-L2 hit for CPU1 but not
	// for CPU2 (each hierarchy walks its own path).
	h0 := tr.Hierarchy(0, &FixedMem{Latency: 50})
	h1 := tr.Hierarchy(1, &FixedMem{Latency: 50})
	h2 := tr.Hierarchy(2, &FixedMem{Latency: 50})
	h0.AccessAt(trace.Access{Addr: 0x4000, Size: 4}, 0)
	if lat := h1.AccessAt(trace.Access{Addr: 0x4000, Size: 4}, 0); lat != 0+8 {
		t.Errorf("cluster-mate hit latency = %d, want 8", lat)
	}
	if lat := h2.AccessAt(trace.Access{Addr: 0x4000, Size: 4}, 0); lat != 0+8+20 {
		t.Errorf("cross-cluster latency = %d, want 28 (cluster miss, shared L3 hit)", lat)
	}
}

// TestPerCPUHeterogeneousGeometry checks per-CPU overrides build
// distinct leaf geometries, visible through each CPU's FastSpec.
func TestPerCPUHeterogeneousGeometry(t *testing.T) {
	l1 := l1Spec()
	l1.PerCPU = map[int]Geometry{1: {Sets: 32, Ways: 4}}
	topo := Topology{Levels: []LevelSpec{l1, l3Spec()}}
	tr, err := topo.Build(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := tr.Cache(0, 0).Config(); g.Sets != 8 || g.Ways != 2 {
		t.Errorf("cpu0 leaf = %+v, want the level default", g)
	}
	if g := tr.Cache(0, 1).Config(); g.Sets != 32 || g.Ways != 4 || g.LineSize != 64 {
		t.Errorf("cpu1 leaf = %+v, want the 32×4 override with inherited line size", g)
	}
	_, sets0, _, _ := tr.Hierarchy(0, nil).FastSpec()
	_, sets1, _, _ := tr.Hierarchy(1, nil).FastSpec()
	if sets0 != 8 || sets1 != 32 {
		t.Errorf("FastSpec sets = %d/%d, want 8/32", sets0, sets1)
	}
}

// TestWithLevelDeepCopies guards the config-mutation idiom: WithLevel
// must not alias the source topology.
func TestWithLevelDeepCopies(t *testing.T) {
	base := Topology{Levels: []LevelSpec{l1Spec(), l3Spec()}}
	big := base.WithLevel("l3", func(l *LevelSpec) { l.Sets *= 2 })
	if base.Levels[1].Sets != 64 || big.Levels[1].Sets != 128 {
		t.Errorf("WithLevel aliased its source: base %d, derived %d", base.Levels[1].Sets, big.Levels[1].Sets)
	}
	defer func() {
		if recover() == nil {
			t.Error("WithLevel on an unknown level must panic")
		}
	}()
	base.WithLevel("l9", func(l *LevelSpec) {})
}
