package cache

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arena"
)

// Sharing scopes of a cache level. A scope is the string form used in
// specs and JSON: "private" (one cache per CPU), "shared" (one cache for
// the whole tile), or "cluster:N" (one cache per group of N consecutive
// CPUs).
const (
	ScopePrivate = "private"
	ScopeShared  = "shared"
	scopeCluster = "cluster" // spelled "cluster:N"
)

// ClusterScope spells the cluster-of-N scope string.
func ClusterScope(n int) string { return fmt.Sprintf("%s:%d", scopeCluster, n) }

// GroupSize resolves a scope string to the number of CPUs sharing one
// cache instance: 1 for private, numCPUs for shared, N for "cluster:N".
func GroupSize(scope string, numCPUs int) (int, error) {
	switch {
	case scope == ScopePrivate:
		return 1, nil
	case scope == ScopeShared:
		return numCPUs, nil
	case strings.HasPrefix(scope, scopeCluster+":"):
		n, err := strconv.Atoi(scope[len(scopeCluster)+1:])
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("cache: bad cluster scope %q (want %q)", scope, "cluster:N")
		}
		return n, nil
	}
	return 0, fmt.Errorf("cache: unknown scope %q (want %q, %q or %q)", scope, ScopePrivate, ScopeShared, "cluster:N")
}

// Geometry is a partial cache geometry: zero fields inherit. It is the
// per-CPU override shape of heterogeneous private levels.
type Geometry struct {
	Sets     int `json:"sets,omitempty"`
	Ways     int `json:"ways,omitempty"`
	LineSize int `json:"line_size,omitempty"`
}

// LevelSpec describes one level of a memory-hierarchy topology.
type LevelSpec struct {
	// Name identifies the level ("l1", "l2", "l3", ...); unique within a
	// topology and addressable from scenario specs and sweep axes.
	Name string
	// Scope is the sharing scope: ScopePrivate, ScopeShared or
	// ClusterScope(N).
	Scope string
	// Sets/Ways/LineSize is the level's default geometry (per instance).
	Sets     int
	Ways     int
	LineSize int
	// HitLat is the level's hit latency in cycles. The leaf level's
	// HitLat is charged on every access (it hides the address generation
	// and tag probe); each deeper level accessed adds its own.
	HitLat uint64
	// Partition marks the level the OS partition tables install at and
	// the profiler taps by default. At most one level may be marked and
	// it must be shared; when none is marked the root (last) level is it.
	Partition bool
	// PerCPU overrides the geometry of individual CPUs' instances;
	// private-scope levels only (a shared instance has no owning CPU).
	PerCPU map[int]Geometry
}

// Config returns the level's default geometry as a cache configuration.
func (l LevelSpec) Config() Config {
	return Config{Name: l.Name, Sets: l.Sets, Ways: l.Ways, LineSize: l.LineSize}
}

// ConfigFor returns the geometry of the instance serving the given CPU,
// with any per-CPU override applied.
func (l LevelSpec) ConfigFor(cpu int) Config {
	c := l.Config()
	if o, ok := l.PerCPU[cpu]; ok {
		if o.Sets != 0 {
			c.Sets = o.Sets
		}
		if o.Ways != 0 {
			c.Ways = o.Ways
		}
		if o.LineSize != 0 {
			c.LineSize = o.LineSize
		}
	}
	return c
}

// Topology is a declarative memory-hierarchy tree: an ordered list of
// cache levels from the CPU-side leaf to the memory-side root, each with
// its own geometry, sharing scope and hit latency, terminating in the
// memory port. Today's hard-wired private-L1 + shared-L2 pair is the
// TwoLevel instance; a single shared level, deeper trees (shared L3
// under private or clustered L2s) and heterogeneous per-CPU geometries
// are all just other values of the same type.
type Topology struct {
	Levels []LevelSpec
}

// TwoLevel is the compatibility constructor: the classic private-L1 +
// shared-partitioned-L2 tile the paper evaluates. Level names default to
// "l1"/"l2" when the configs carry none.
func TwoLevel(l1, l2 Config, l1HitLat, l2HitLat uint64) Topology {
	n1, n2 := l1.Name, l2.Name
	if n1 == "" {
		n1 = "l1"
	}
	if n2 == "" {
		n2 = "l2"
	}
	return Topology{Levels: []LevelSpec{
		{Name: n1, Scope: ScopePrivate, Sets: l1.Sets, Ways: l1.Ways, LineSize: l1.LineSize, HitLat: l1HitLat},
		{Name: n2, Scope: ScopeShared, Sets: l2.Sets, Ways: l2.Ways, LineSize: l2.LineSize, HitLat: l2HitLat, Partition: true},
	}}
}

// Clone returns a deep copy (LevelSpec carries a map).
func (t Topology) Clone() Topology {
	out := Topology{Levels: make([]LevelSpec, len(t.Levels))}
	copy(out.Levels, t.Levels)
	for i := range out.Levels {
		if src := out.Levels[i].PerCPU; src != nil {
			dst := make(map[int]Geometry, len(src))
			for k, v := range src {
				dst[k] = v
			}
			out.Levels[i].PerCPU = dst
		}
	}
	return out
}

// Index returns the position of the named level, or -1.
func (t Topology) Index(name string) int {
	for i := range t.Levels {
		if t.Levels[i].Name == name {
			return i
		}
	}
	return -1
}

// LevelNames lists the level names, leaf to root.
func (t Topology) LevelNames() []string {
	names := make([]string, len(t.Levels))
	for i := range t.Levels {
		names[i] = t.Levels[i].Name
	}
	return names
}

// WithLevel returns a deep copy with the named level mutated — the
// config-construction idiom for geometry variants (e.g. doubling the
// shared level's sets). It panics on an unknown name: topologies are
// fixed by the platform description, so a bad name is a programming
// error, exactly like New on an invalid Config.
func (t Topology) WithLevel(name string, mutate func(*LevelSpec)) Topology {
	out := t.Clone()
	i := out.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("cache: topology has no level %q (levels: %v)", name, t.LevelNames()))
	}
	mutate(&out.Levels[i])
	return out
}

// PartitionIndex resolves the level partition tables install at and the
// profiler taps by default: the level marked Partition, else the root.
// -1 when the topology is empty or more than one level is marked.
func (t Topology) PartitionIndex() int {
	idx := -1
	for i := range t.Levels {
		if t.Levels[i].Partition {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	if idx < 0 && len(t.Levels) > 0 {
		idx = len(t.Levels) - 1
	}
	return idx
}

// Partition returns the resolved partition level's spec (the zero
// LevelSpec for an invalid topology).
func (t Topology) Partition() LevelSpec {
	i := t.PartitionIndex()
	if i < 0 {
		return LevelSpec{}
	}
	return t.Levels[i]
}

// FirstShared returns the index of the innermost shared-scope level —
// the level shared regions (FIFOs, frames, static sections) live at;
// every level before it is bypassed by them (the model's stand-in for
// coherence, see Hierarchy). len(Levels) when no level is shared.
func (t Topology) FirstShared() int {
	for i := range t.Levels {
		if t.Levels[i].Scope == ScopeShared {
			return i
		}
	}
	return len(t.Levels)
}

// Validate checks the topology against a CPU count: at least one level,
// unique names, valid per-instance geometries, resolvable scopes whose
// group sizes divide the CPU count and nest (each level's sharing group
// must contain the previous level's), a shared root, and a unique,
// shared partition level.
func (t Topology) Validate(numCPUs int) error {
	if numCPUs <= 0 {
		return fmt.Errorf("cache: topology for %d CPUs", numCPUs)
	}
	if len(t.Levels) == 0 {
		return fmt.Errorf("cache: topology has no levels (at least one shared level is required)")
	}
	seen := map[string]bool{}
	prevGroup := 1
	for i, l := range t.Levels {
		if l.Name == "" {
			return fmt.Errorf("cache: level %d has no name", i)
		}
		if seen[l.Name] {
			return fmt.Errorf("cache: duplicate level name %q", l.Name)
		}
		seen[l.Name] = true
		g, err := GroupSize(l.Scope, numCPUs)
		if err != nil {
			return fmt.Errorf("cache: level %q: %w", l.Name, err)
		}
		if numCPUs%g != 0 {
			return fmt.Errorf("cache: level %q: %d CPUs not divisible by cluster size %d", l.Name, numCPUs, g)
		}
		if g < prevGroup || g%prevGroup != 0 {
			return fmt.Errorf("cache: level %q: sharing group of %d CPUs does not nest over the previous level's %d (scopes must widen from leaf to root)", l.Name, g, prevGroup)
		}
		prevGroup = g
		if err := l.Config().Validate(); err != nil {
			return err
		}
		if len(l.PerCPU) > 0 {
			if l.Scope != ScopePrivate {
				return fmt.Errorf("cache: level %q: per-CPU geometry overrides require the %q scope (got %q)", l.Name, ScopePrivate, l.Scope)
			}
			cpus := make([]int, 0, len(l.PerCPU))
			for c := range l.PerCPU {
				cpus = append(cpus, c)
			}
			sort.Ints(cpus)
			for _, c := range cpus {
				if c < 0 || c >= numCPUs {
					return fmt.Errorf("cache: level %q: per-CPU override for cpu %d out of range [0,%d)", l.Name, c, numCPUs)
				}
				if err := l.ConfigFor(c).Validate(); err != nil {
					return fmt.Errorf("cache: level %q cpu %d: %w", l.Name, c, err)
				}
			}
		}
	}
	if t.Levels[len(t.Levels)-1].Scope != ScopeShared {
		return fmt.Errorf("cache: root level %q must be shared (scope %q)", t.Levels[len(t.Levels)-1].Name, t.Levels[len(t.Levels)-1].Scope)
	}
	marked := 0
	for _, l := range t.Levels {
		if l.Partition {
			marked++
			if l.Scope != ScopeShared {
				return fmt.Errorf("cache: partition level %q must be shared (scope %q)", l.Name, l.Scope)
			}
		}
	}
	if marked > 1 {
		return fmt.Errorf("cache: %d levels marked as the partition level (want at most one)", marked)
	}
	return nil
}

// Tree is a Topology instantiated for a CPU count: the concrete cache
// instances of every level, group-assigned, plus the per-CPU hierarchy
// paths the execution engine charges through.
type Tree struct {
	// Topo is the tree's own deep copy of the topology it was built from.
	Topo    Topology
	NumCPUs int

	caches      [][]*Cache // [level][group]
	groups      []int      // CPUs per instance, per level
	firstShared int
	partLevel   int
}

// Build validates the topology and instantiates its caches. Shared
// levels get one instance, cluster:N levels one per N CPUs, private
// levels one per CPU (named "<level>.<cpu>"; per-CPU geometry overrides
// apply there). Every instance's line state is drawn from the arena
// (heap-allocated when a is nil).
func (t Topology) Build(numCPUs int, a *arena.Arena) (*Tree, error) {
	if err := t.Validate(numCPUs); err != nil {
		return nil, err
	}
	tr := &Tree{
		Topo:        t.Clone(),
		NumCPUs:     numCPUs,
		caches:      make([][]*Cache, len(t.Levels)),
		groups:      make([]int, len(t.Levels)),
		firstShared: t.FirstShared(),
		partLevel:   t.PartitionIndex(),
	}
	for li, l := range tr.Topo.Levels {
		g, _ := GroupSize(l.Scope, numCPUs)
		n := numCPUs / g
		row := make([]*Cache, n)
		for i := range row {
			cfg := l.ConfigFor(i * g) // identity for non-private scopes
			if n > 1 {
				cfg.Name = l.Name + "." + strconv.Itoa(i)
			}
			row[i] = newIn(cfg, a)
		}
		tr.groups[li] = g
		tr.caches[li] = row
	}
	return tr, nil
}

// NumLevels returns the level count.
func (tr *Tree) NumLevels() int { return len(tr.caches) }

// Cache returns the instance of the given level serving the given CPU.
func (tr *Tree) Cache(level, cpu int) *Cache {
	return tr.caches[level][cpu/tr.groups[level]]
}

// LevelCaches returns every instance of one level (shared levels have
// exactly one). The slice must not be modified.
func (tr *Tree) LevelCaches(level int) []*Cache { return tr.caches[level] }

// MaxLeafSets returns the largest set count among the leaf level's
// instances when the leaf lies below the first shared level (the
// geometry the execution engine's line-register files are keyed by), or
// 0 when the leaf is already shared (no cacheable batching).
func (tr *Tree) MaxLeafSets() int {
	if tr.firstShared == 0 {
		return 0
	}
	most := 0
	for _, c := range tr.caches[0] {
		if c.cfg.Sets > most {
			most = c.cfg.Sets
		}
	}
	return most
}

// PartitionCache returns the partition level's (single, shared) cache.
func (tr *Tree) PartitionCache() *Cache { return tr.caches[tr.partLevel][0] }

// SharedCache returns the single instance of the named shared-scope
// level, or an error (the profiler may tap any shared level by name; an
// empty name selects the partition level).
func (tr *Tree) SharedCache(name string) (*Cache, error) {
	if name == "" {
		return tr.PartitionCache(), nil
	}
	i := tr.Topo.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("cache: no level %q (levels: %v)", name, tr.Topo.LevelNames())
	}
	if tr.Topo.Levels[i].Scope != ScopeShared {
		return nil, fmt.Errorf("cache: level %q is %s, not shared", name, tr.Topo.Levels[i].Scope)
	}
	return tr.caches[i][0], nil
}

// Hierarchy wires CPU cpu's leaf-to-root path over the memory port.
func (tr *Tree) Hierarchy(cpu int, mem MemPort) *Hierarchy {
	path := make([]*Cache, len(tr.caches))
	lats := make([]uint64, len(tr.caches))
	for k := range tr.caches {
		path[k] = tr.Cache(k, cpu)
		lats[k] = tr.Topo.Levels[k].HitLat
	}
	return NewHierarchy(path, tr.firstShared, lats, mem)
}
