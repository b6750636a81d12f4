// Package trace defines the memory access record exchanged between the
// cores, the cache hierarchy and the profiler, plus deterministic
// synthetic access-stream generators used by tests.
package trace

import (
	"fmt"

	"repro/internal/mem"
)

// Op is the type of a memory access.
type Op uint8

// Access operations. Fetch models instruction fetch; the L2 of the CAKE
// tile is unified, so code competes for the same sets as data.
const (
	Read Op = iota
	Write
	Fetch
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	case Fetch:
		return "F"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Access is one memory reference as seen by the cache hierarchy.
type Access struct {
	Addr   uint64
	Size   uint8
	Op     Op
	Region mem.RegionID // owning entity, resolved at issue time
}

// Generator produces a deterministic stream of accesses. Generators model
// archetypal multimedia access patterns and are used to unit-test cache
// behaviour independently of the full applications.
type Generator interface {
	// Next returns the next access and true, or a zero Access and
	// false when the stream is exhausted.
	Next() (Access, bool)
}

// StrideGen emits Count accesses starting at Base with the given stride,
// the pattern of sequential streaming through a buffer.
type StrideGen struct {
	Base   uint64
	Stride uint64
	Count  uint64
	Op     Op
	Size   uint8
	Region mem.RegionID

	i uint64
}

// Next implements Generator.
func (g *StrideGen) Next() (Access, bool) {
	if g.i >= g.Count {
		return Access{}, false
	}
	a := Access{
		Addr:   g.Base + g.i*g.Stride,
		Size:   g.sizeOrDefault(),
		Op:     g.Op,
		Region: g.Region,
	}
	g.i++
	return a, true
}

func (g *StrideGen) sizeOrDefault() uint8 {
	if g.Size == 0 {
		return 4
	}
	return g.Size
}

// LoopGen sweeps a working set of WorkingSet bytes from Base, Iters times,
// with the given stride — the pattern of a filter kernel re-reading its
// coefficient table and line buffers.
type LoopGen struct {
	Base       uint64
	WorkingSet uint64
	Stride     uint64
	Iters      uint64
	Op         Op
	Region     mem.RegionID

	iter, off uint64
}

// Next implements Generator.
func (g *LoopGen) Next() (Access, bool) {
	if g.Stride == 0 {
		g.Stride = 4
	}
	if g.iter >= g.Iters {
		return Access{}, false
	}
	a := Access{Addr: g.Base + g.off, Size: 4, Op: g.Op, Region: g.Region}
	g.off += g.Stride
	if g.off >= g.WorkingSet {
		g.off = 0
		g.iter++
	}
	return a, true
}

// RandomGen emits Count accesses uniformly distributed over a working set,
// using a deterministic xorshift PRNG — the pattern of irregular table
// lookups (e.g. VLD code books).
type RandomGen struct {
	Base       uint64
	WorkingSet uint64
	Count      uint64
	Seed       uint64
	Op         Op
	Region     mem.RegionID

	i     uint64
	state uint64
}

// Next implements Generator.
func (g *RandomGen) Next() (Access, bool) {
	if g.i >= g.Count {
		return Access{}, false
	}
	if g.state == 0 {
		g.state = g.Seed | 1
	}
	// xorshift64*
	g.state ^= g.state >> 12
	g.state ^= g.state << 25
	g.state ^= g.state >> 27
	r := g.state * 0x2545F4914F6CDD1D
	off := (r % (g.WorkingSet / 4)) * 4
	g.i++
	return Access{Addr: g.Base + off, Size: 4, Op: g.Op, Region: g.Region}, true
}

// Interleave round-robins over several generators, modelling the
// interleaving of independent tasks in a shared cache; exhausted
// generators are skipped.
type Interleave struct {
	Gens []Generator

	next int
}

// Next implements Generator.
func (g *Interleave) Next() (Access, bool) {
	for tries := 0; tries < len(g.Gens); tries++ {
		i := (g.next + tries) % len(g.Gens)
		if g.Gens[i] == nil {
			continue
		}
		a, ok := g.Gens[i].Next()
		if ok {
			g.next = (i + 1) % len(g.Gens)
			return a, true
		}
		g.Gens[i] = nil
	}
	return Access{}, false
}
