// Package trace defines the memory access record exchanged between the
// cores, the cache hierarchy and the profiler.
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
