package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioJSONGolden pins the wire format of a spec: the golden
// string is the contract of the Scenario API (schema version 1).
func TestScenarioJSONGolden(t *testing.T) {
	spec := Scenario{
		Name:      "custom-8cpu",
		Workload:  "mpeg2",
		Scale:     "small",
		Seed:      7,
		Partition: PartitionOptimized,
		Runs:      3,
		Solver:    "ilp",
		Sizes:     []int{1, 2, 4},
		Platform:  &PlatformSpec{NumCPUs: iptr(8), L2: CacheSpec{Sets: iptr(4096)}},
	}
	const golden = `{"name":"custom-8cpu","workload":"mpeg2","scale":"small","seed":7,"platform":{"num_cpus":8,"l2":{"sets":4096}},"partition":"optimized","runs":3,"solver":"ilp","sizes":[1,2,4]}`
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != golden {
		t.Errorf("spec wire format changed:\n got %s\nwant %s", raw, golden)
	}
	var back Scenario
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, spec)
	}
}

// TestMinimalSpecNormalizes checks that the smallest useful spec — just
// a workload — normalizes to the canonical paper defaults.
func TestMinimalSpecNormalizes(t *testing.T) {
	n, err := Scenario{Workload: "mpeg2"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Scale != "paper" || n.Partition != PartitionOptimized || n.Runs != 2 ||
		n.Solver != "mckp" || n.ProfileEngine != "stackdist" || n.ExecEngine != "merged" {
		t.Errorf("unexpected defaults: %+v", n)
	}
	if len(n.Sizes) != 8 || n.Sizes[0] != 1 || n.Sizes[7] != 128 {
		t.Errorf("unexpected default sizes: %v", n.Sizes)
	}
	if n.Platform == nil || n.Platform.NumCPUs == nil || *n.Platform.NumCPUs != 4 {
		t.Errorf("unexpected default platform: %+v", n.Platform)
	}
	// The canonical form carries a fully explicit hierarchy block: the
	// default two-level tree with a 2048-set shared partitioned l2.
	h := n.Platform.Hierarchy
	if h == nil || len(h.Levels) != 2 || h.Levels[0].Name != "l1" || h.Levels[1].Name != "l2" {
		t.Fatalf("unexpected canonical hierarchy: %+v", h)
	}
	if *h.Levels[1].Sets != 2048 || h.Levels[1].Scope != "shared" || !*h.Levels[1].Partition {
		t.Errorf("unexpected canonical l2 level: %+v", h.Levels[1])
	}
}

// TestInvalidSpecs enumerates the validation errors a bad spec must
// produce (with actionable messages). Run rejects each spec the same
// way, without a contained panic: a base CPI that is not finite (only
// the Go API can pass one; JSON carries none) once normalized and then
// panicked while Key hashed it.
func TestInvalidSpecs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		spec Scenario
		want string
	}{
		{"missing workload", Scenario{}, "missing workload"},
		{"unknown workload", Scenario{Workload: "nope"}, `unknown workload "nope"`},
		{"unknown scale", Scenario{Workload: "mpeg2", Scale: "huge"}, `unknown scale "huge"`},
		{"unknown partition", Scenario{Workload: "mpeg2", Partition: "sliced"}, "unknown partition policy"},
		{"unknown solver", Scenario{Workload: "mpeg2", Solver: "sat"}, `unknown solver "sat"`},
		{"unknown profile engine", Scenario{Workload: "mpeg2", ProfileEngine: "magic"}, "unknown profiling engine"},
		{"unknown exec engine", Scenario{Workload: "mpeg2", ExecEngine: "warp"}, "unknown execution engine"},
		{"bad size", Scenario{Workload: "mpeg2", Sizes: []int{3}}, "not a positive power of two"},
		{"negative runs", Scenario{Workload: "mpeg2", Runs: -1}, "runs -1"},
		{"runs above the jitter table", Scenario{Workload: "mpeg2", Runs: 8}, "runs 8 above 7"},
		{"future version", Scenario{Workload: "mpeg2", SpecVersion: 99}, "unsupported spec_version"},
		{"unresolved base", Scenario{Workload: "mpeg2", Base: "app1"}, "unresolved base"},
		{"alloc workload with wrong policy", Scenario{Workload: "mpeg2", Partition: PartitionShared, AllocWorkload: "mpeg2"}, "alloc_workload"},
		{"unknown alloc workload", Scenario{Workload: "mpeg2", AllocWorkload: "nope"}, `unknown alloc_workload "nope"`},
		{"bad platform", Scenario{Workload: "mpeg2", Platform: &PlatformSpec{L2: CacheSpec{Sets: iptr(3)}}}, "not a positive power of two"},
		{"explicit zero ways", Scenario{Workload: "mpeg2", Platform: &PlatformSpec{L2: CacheSpec{Ways: iptr(0)}}}, "ways 0"},
		{"bad profile level", Scenario{Workload: "mpeg2", ProfileLevel: "l9"}, `profile_level "l9"`},
		{"non-shared profile level", Scenario{Workload: "mpeg2", ProfileLevel: "l1"}, "not shared"},
		{"NaN base CPI", Scenario{Workload: "mpeg2", Platform: &PlatformSpec{BaseCPI: &nan}}, "base CPI"},
		{"infinite base CPI", Scenario{Workload: "mpeg2", Platform: &PlatformSpec{BaseCPI: &inf}}, "base CPI"},
	}
	rn := NewRunner(1)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Normalize()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if _, err := rn.Run(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Run: error %v does not mention %q", err, c.want)
			}
		})
	}
	if n := rn.Stats().StagePanics; n != 0 {
		t.Errorf("Run contained %d panics, want 0", n)
	}
}

// TestContentKey checks the content-addressing contract: names, the
// exact-oracle engine and solver spellings and the trace mode don't
// matter, defaults are canonical, every semantic field matters.
func TestContentKey(t *testing.T) {
	base := Scenario{Workload: "mpeg2", Scale: "small"}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	stages0, err := base.StageKeys()
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Scenario){
		"name":           func(s *Scenario) { s.Name = "anything" },
		"exec":           func(s *Scenario) { s.ExecEngine = "word" },
		"profile_engine": func(s *Scenario) { s.ProfileEngine = "bank" },
		"solver":         func(s *Scenario) { s.Solver = "ilp" },
		"repeated sizes": func(s *Scenario) { s.Sizes = []int{1, 2, 4, 8, 16, 32, 64, 64, 128} },
		"empty sizes":    func(s *Scenario) { s.Sizes = []int{} },
		"trace live":     func(s *Scenario) { s.Trace = TraceLive },
	} {
		m := base
		mutate(&m)
		if k, err := m.Key(); err != nil || k != k0 {
			t.Errorf("%s must not affect the content key (key %s, err %v)", name, k, err)
		}
		if ks, err := m.StageKeys(); err != nil || !reflect.DeepEqual(ks, stages0) {
			t.Errorf("%s must not affect the stage keys (%v, err %v)", name, ks, err)
		}
	}

	explicit := base
	explicit.Runs = 2
	explicit.Solver = "mckp"
	explicit.Partition = PartitionOptimized
	explicit.Platform = &PlatformSpec{}
	if k, _ := explicit.Key(); k != k0 {
		t.Errorf("explicitly spelling the defaults must not change the key")
	}

	for name, mutate := range map[string]func(*Scenario){
		"seed":     func(s *Scenario) { s.Seed = 1 },
		"scale":    func(s *Scenario) { s.Scale = "paper" },
		"workload": func(s *Scenario) { s.Workload = "jpeg1-only" },
		"platform": func(s *Scenario) { s.Platform = &PlatformSpec{NumCPUs: iptr(8)} },
		"runs":     func(s *Scenario) { s.Runs = 5 },
		"policy":   func(s *Scenario) { s.Partition = PartitionShared },
	} {
		m := base
		mutate(&m)
		k, err := m.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k0 {
			t.Errorf("changing %s must change the content key", name)
		}
	}
}

// TestResolveOverlay checks base-overlay semantics: present fields
// override, omitted fields inherit.
func TestResolveOverlay(t *testing.T) {
	base := Scenario{
		Name:     "app1",
		Workload: "2jpeg+canny",
		Scale:    "paper",
		Runs:     2,
		Solver:   "mckp",
		Platform: &PlatformSpec{NumCPUs: iptr(4)},
	}
	lookup := func(name string) (Scenario, bool) {
		if name == "app1" {
			return base, true
		}
		return Scenario{}, false
	}

	got, err := Resolve([]byte(`{"base":"app1","scale":"small","platform":{"num_cpus":8},"solver":"ilp"}`), lookup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "2jpeg+canny" || got.Runs != 2 {
		t.Errorf("omitted fields must inherit the base: %+v", got)
	}
	if got.Scale != "small" || got.Solver != "ilp" || *got.Platform.NumCPUs != 8 {
		t.Errorf("present fields must override the base: %+v", got)
	}
	if got.Base != "" {
		t.Errorf("resolved spec must clear Base, got %q", got.Base)
	}

	if _, err := Resolve([]byte(`{"base":"missing"}`), lookup); err == nil || !strings.Contains(err.Error(), "unknown base") {
		t.Errorf("unknown base must error, got %v", err)
	}
	if _, err := Resolve([]byte(`{"workload":`), lookup); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := Resolve([]byte(`{"base":"app1"}`), nil); err == nil {
		t.Error("base without a lookup must error")
	}

	// Without a base, Resolve is a plain parse.
	got, err = Resolve([]byte(`{"workload":"mpeg2"}`), nil)
	if err != nil || got.Workload != "mpeg2" {
		t.Errorf("plain parse failed: %+v, %v", got, err)
	}
}

// TestPlatformSpecRoundTrip checks PlatformSpecOf ∘ Config is the
// identity on the default-reachable configurations the specs use.
func TestPlatformSpecRoundTrip(t *testing.T) {
	q := int64(10_000)
	spec := PlatformSpec{NumCPUs: iptr(8), L2: CacheSpec{Sets: iptr(4096)}, Sched: SchedSpec{Quantum: &q}}
	pc, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	geom := pc.PartitionGeom()
	if pc.NumCPUs != 8 || geom.Sets != 4096 || pc.Sched.Quantum != 10_000 {
		t.Fatalf("overrides not applied: %+v", pc)
	}
	if pc.Topology.Levels[0].Sets != 64 || geom.Ways != 4 || pc.Bus.Banks != 4 {
		t.Fatalf("defaults not kept: %+v", pc)
	}
	back := PlatformSpecOf(pc)
	pc2, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pc2, pc) {
		t.Errorf("PlatformSpecOf round trip drifted:\n got %+v\nwant %+v", pc2, pc)
	}
}
