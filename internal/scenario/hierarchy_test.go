package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestExplicitZeroOverrideIsNotDefault is the regression for the old
// zero-means-default trap: a deliberate `"ways": 0` used to silently
// mean "keep the default 4 ways"; with pointer spec fields it is an
// explicit (invalid) zero and must fail naming the field — while an
// absent field still inherits the default.
func TestExplicitZeroOverrideIsNotDefault(t *testing.T) {
	spec, err := Resolve([]byte(`{"workload":"mpeg2","platform":{"l2":{"ways":0}}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Normalize(); err == nil || !strings.Contains(err.Error(), "ways 0") {
		t.Errorf(`explicit "ways": 0 must fail naming the field, got %v`, err)
	}

	spec, err = Resolve([]byte(`{"workload":"mpeg2","platform":{"l2":{"sets":1024}}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	if g := pc.PartitionGeom(); g.Sets != 1024 || g.Ways != 4 {
		t.Errorf("absent fields must keep defaults: %+v", g)
	}

	// An explicit zero switch-cost / switch-touches is a real zero, not
	// "default" (the old int fields could not express it).
	spec, err = Resolve([]byte(`{"workload":"mpeg2","platform":{"switch_touches":0,"sched":{"switch_cost":0}}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err = spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if pc, err = n.Platform.Config(); err != nil {
		t.Fatal(err)
	}
	if pc.SwitchTouches != 0 || pc.Sched.SwitchCost != 0 {
		t.Errorf("explicit zeros must be applied verbatim: touches=%d cost=%d", pc.SwitchTouches, pc.Sched.SwitchCost)
	}
}

// TestHierarchyBlockMaterialization checks the zero-means-default
// overlay of the hierarchy block: sparse levels seed from the section 5
// defaults by name and scope, the last level defaults to shared and
// carries the partition, and middle levels default to private.
func TestHierarchyBlockMaterialization(t *testing.T) {
	spec, err := Resolve([]byte(`{
		"workload": "2jpeg+canny",
		"platform": {"hierarchy": {"levels": [
			{"name": "l1"},
			{"name": "l2", "sets": 512, "hit_latency": 8},
			{"name": "l3", "sets": 4096, "hit_latency": 24}
		]}}
	}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	topo := pc.Topology
	if len(topo.Levels) != 3 {
		t.Fatalf("want 3 levels, got %+v", topo.LevelNames())
	}
	l1, l2, l3 := topo.Levels[0], topo.Levels[1], topo.Levels[2]
	if l1.Scope != cache.ScopePrivate || l1.Sets != 64 || l1.Ways != 4 || l1.HitLat != 0 {
		t.Errorf("l1 must seed from the default L1: %+v", l1)
	}
	if l2.Scope != cache.ScopePrivate || l2.Sets != 512 || l2.HitLat != 8 {
		t.Errorf("middle level must default to private with its overrides: %+v", l2)
	}
	if l3.Scope != cache.ScopeShared || l3.Sets != 4096 || l3.Ways != 4 || l3.HitLat != 24 {
		t.Errorf("root must default to shared seeding the L2 geometry: %+v", l3)
	}
	if topo.PartitionIndex() != 2 {
		t.Errorf("partition must default to the root, got %d", topo.PartitionIndex())
	}
	if g := pc.PartitionGeom(); g.SizeBytes() != 4096*4*64 {
		t.Errorf("partition capacity = %d", g.SizeBytes())
	}
}

// TestLegacyAliasOverlaysHierarchy checks the compatibility mapping:
// the old l1/l2 spec fields remain accepted as aliases for the
// equally-named hierarchy levels, as the outermost overlay — including
// over a base's canonical (fully explicit) hierarchy block.
func TestLegacyAliasOverlaysHierarchy(t *testing.T) {
	base := Scenario{Workload: "2jpeg+canny", Platform: &PlatformSpec{Hierarchy: &HierarchySpec{Levels: []LevelSpec{
		{Name: "l1"},
		{Name: "l2", Sets: iptr(512), HitLatency: u64ptr(8)},
		{Name: "l3", Sets: iptr(4096), HitLatency: u64ptr(24)},
	}}}}
	nb, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// The normalized base is fully explicit; overlay it with the legacy
	// shorthand, exactly as a "base"-referencing user spec would.
	spec := nb
	spec.Platform = &PlatformSpec{}
	*spec.Platform = *nb.Platform
	spec.Platform.L2 = CacheSpec{Sets: iptr(1024)}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	i := pc.Topology.Index("l2")
	if i < 0 || pc.Topology.Levels[i].Sets != 1024 {
		t.Errorf("legacy l2 alias must override the hierarchy level, got %+v", pc.Topology.Levels)
	}
	// And the untouched levels keep the base's values.
	if j := pc.Topology.Index("l3"); pc.Topology.Levels[j].Sets != 4096 {
		t.Errorf("alias overlay must not disturb other levels: %+v", pc.Topology.Levels)
	}

	// An alias against a block with no level of that name must fail
	// loudly — it would otherwise vanish, and sweep axes built on the
	// aliases would label points with geometry that never ran.
	if _, err := (Scenario{Workload: "mpeg2", Platform: &PlatformSpec{
		Hierarchy: &HierarchySpec{Levels: []LevelSpec{{Name: "llc"}}},
		L2:        CacheSpec{Sets: iptr(1024)},
	}}).Normalize(); err == nil || !strings.Contains(err.Error(), `no level named "l2"`) {
		t.Errorf("dangling l2 alias must error, got %v", err)
	}
}

// TestPerCPUGeometryJSONRoundTrip checks a heterogeneous per-CPU
// geometry survives spec → JSON → spec → Normalize with an identical
// platform and content key.
func TestPerCPUGeometryJSONRoundTrip(t *testing.T) {
	spec, err := Resolve([]byte(`{
		"workload": "mpeg2",
		"platform": {"hierarchy": {"levels": [
			{"name": "l1", "per_cpu": {"1": {"sets": 128, "ways": 2}, "3": {"sets": 32}}},
			{"name": "l2"}
		]}}
	}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(n1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Resolve(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := back.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pc1, err := n1.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	pc2, err := n2.Platform.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pc1, pc2) {
		t.Errorf("per-CPU geometry drifted through JSON:\n%+v\nvs\n%+v", pc1, pc2)
	}
	k1, err := n1.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := n2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("content key drifted through JSON: %s vs %s", k1, k2)
	}
	// The override actually lands on the built tree.
	tr, err := pc1.Topology.Build(pc1.NumCPUs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := tr.Cache(0, 1).Config(); g.Sets != 128 || g.Ways != 2 {
		t.Errorf("cpu1 leaf = %+v", g)
	}
	if g := tr.Cache(0, 3).Config(); g.Sets != 32 || g.Ways != 4 {
		t.Errorf("cpu3 leaf = %+v", g)
	}
	if g := tr.Cache(0, 0).Config(); g.Sets != 64 {
		t.Errorf("cpu0 leaf = %+v", g)
	}

	// Rejections: a non-numeric CPU key and an explicit zero geometry.
	if _, err := (Scenario{Workload: "mpeg2", Platform: &PlatformSpec{Hierarchy: &HierarchySpec{Levels: []LevelSpec{
		{Name: "l1", PerCPU: map[string]CacheSpec{"x": {}}},
		{Name: "l2"},
	}}}}).Normalize(); err == nil || !strings.Contains(err.Error(), `per_cpu key "x"`) {
		t.Errorf("bad per_cpu key must error, got %v", err)
	}
	if _, err := (Scenario{Workload: "mpeg2", Platform: &PlatformSpec{Hierarchy: &HierarchySpec{Levels: []LevelSpec{
		{Name: "l1", PerCPU: map[string]CacheSpec{"0": {Ways: iptr(0)}}},
		{Name: "l2"},
	}}}}).Normalize(); err == nil || !strings.Contains(err.Error(), "ways 0") {
		t.Errorf("explicit zero per_cpu geometry must error, got %v", err)
	}
}

// TestHierarchyVersioning pins the hierarchy block's version gate.
func TestHierarchyVersioning(t *testing.T) {
	_, err := Scenario{Workload: "mpeg2", Platform: &PlatformSpec{Hierarchy: &HierarchySpec{
		Version: 9,
		Levels:  []LevelSpec{{Name: "l2"}},
	}}}.Normalize()
	if err == nil || !strings.Contains(err.Error(), "hierarchy version 9") {
		t.Errorf("future hierarchy version must be rejected, got %v", err)
	}
	n, err := Scenario{Workload: "mpeg2", Platform: &PlatformSpec{Hierarchy: &HierarchySpec{
		Levels: []LevelSpec{{Name: "l2"}},
	}}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Platform.Hierarchy.Version != HierarchyVersion {
		t.Errorf("canonical form must stamp version %d, got %d", HierarchyVersion, n.Platform.Hierarchy.Version)
	}
}
