package cache

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"repro/internal/arena"
)

// Descriptor is the immutable half of an instantiated topology: the
// validated level specs, group assignment, resolved partition/shared
// indices and per-instance geometries — everything about a (topology,
// CPU count) pair that never changes during simulation. Descriptors are
// interned: every concurrent simulation of the same spec shares one
// read-only Descriptor, and only the compact mutable state block (the
// caches' tag/LRU/dirty arrays) is built per simulation by Instantiate.
type Descriptor struct {
	// Topo is the validated topology (a private deep copy; callers must
	// treat it as read-only — it is shared by every Tree instantiated
	// from this descriptor).
	Topo    Topology
	NumCPUs int

	levels      []levelDesc
	firstShared int
	partLevel   int
	maxLeafSets int
}

// levelDesc is one level's instantiation plan: the CPUs-per-instance
// group size and the resolved config of every instance.
type levelDesc struct {
	group int
	cfgs  []Config
}

// interned maps descriptor keys to weak.Pointer[Descriptor]. The key is
// the canonical JSON of the topology plus the CPU count; encoding/json
// emits map keys (the PerCPU overrides) sorted, so equal topologies
// always produce equal keys. Entries are weak: equal topologies share
// one descriptor while any Tree holds it, and once none does, the
// garbage collector frees it and a cleanup deletes its entry, so a
// long-lived process that sees many platforms keeps only the live ones.
var interned sync.Map

func descriptorKey(t Topology, numCPUs int) (string, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("cache: canonicalizing topology: %w", err)
	}
	return fmt.Sprintf("%d|%s", numCPUs, b), nil
}

// Describe validates the topology for a CPU count and returns its
// interned immutable descriptor: repeated calls with an equal topology
// return the same *Descriptor, so concurrent simulations of one spec
// share a single copy of the geometry instead of each rebuilding it.
func (t Topology) Describe(numCPUs int) (*Descriptor, error) {
	key, err := descriptorKey(t, numCPUs)
	if err != nil {
		return nil, err
	}
	if wp, ok := interned.Load(key); ok {
		if d := wp.(weak.Pointer[Descriptor]).Value(); d != nil {
			return d, nil
		}
	}
	if err := t.Validate(numCPUs); err != nil {
		return nil, err
	}
	d := &Descriptor{
		Topo:        t.Clone(),
		NumCPUs:     numCPUs,
		firstShared: t.FirstShared(),
		partLevel:   t.PartitionIndex(),
	}
	for _, l := range d.Topo.Levels {
		g, _ := GroupSize(l.Scope, numCPUs)
		n := numCPUs / g
		ld := levelDesc{group: g, cfgs: make([]Config, n)}
		for i := range ld.cfgs {
			cfg := l.ConfigFor(i * g) // identity for non-private scopes
			if n > 1 {
				cfg.Name = fmt.Sprintf("%s.%d", l.Name, i)
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			ld.cfgs[i] = cfg
		}
		d.levels = append(d.levels, ld)
	}
	if d.firstShared > 0 {
		for _, cfg := range d.levels[0].cfgs {
			if cfg.Sets > d.maxLeafSets {
				d.maxLeafSets = cfg.Sets
			}
		}
	}
	return intern(key, d), nil
}

// intern publishes d under key, or returns the live descriptor another
// caller published first. An entry whose descriptor was collected but
// whose cleanup has not run yet is replaced.
func intern(key string, d *Descriptor) *Descriptor {
	wp := weak.Make(d)
	for {
		old, loaded := interned.LoadOrStore(key, wp)
		if loaded {
			if live := old.(weak.Pointer[Descriptor]).Value(); live != nil {
				return live
			}
			if !interned.CompareAndSwap(key, old, wp) {
				continue
			}
		}
		runtime.AddCleanup(d, func(key string) { interned.CompareAndDelete(key, wp) }, key)
		return d
	}
}

// MaxLeafSets returns the largest set count among the leaf level's
// instances when the leaf lies below the first shared level (the
// geometry the execution engine's line-register files are keyed by), or
// 0 when the leaf is already shared (no cacheable batching).
func (d *Descriptor) MaxLeafSets() int { return d.maxLeafSets }

// Instantiate builds the per-simulation mutable state block over the
// shared descriptor: every cache instance of every level, their line
// state drawn from the arena (heap-allocated when a is nil). The
// returned Tree shares the descriptor's Topology read-only.
func (d *Descriptor) Instantiate(a *arena.Arena) *Tree {
	tr := &Tree{
		Topo:        d.Topo,
		NumCPUs:     d.NumCPUs,
		desc:        d,
		firstShared: d.firstShared,
		partLevel:   d.partLevel,
	}
	tr.groups = make([]int, len(d.levels))
	tr.caches = make([][]*Cache, len(d.levels))
	for li, ld := range d.levels {
		tr.groups[li] = ld.group
		row := make([]*Cache, len(ld.cfgs))
		for i, cfg := range ld.cfgs {
			row[i] = newIn(cfg, a)
		}
		tr.caches[li] = row
	}
	return tr
}
