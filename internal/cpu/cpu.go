// Package cpu models the processors of the CAKE tile: in-order VLIW cores
// (TriMedia-class) characterized by a base CPI achieved with a perfect
// memory system, on top of which memory stalls and task-switch overheads
// accumulate. The model is deliberately first-order — the paper's results
// are driven by L2 behaviour, not by pipeline microarchitecture.
package cpu

import (
	"fmt"
	"math"
)

// Config describes one core.
type Config struct {
	ID      int
	Name    string
	BaseCPI float64 // cycles per instruction with a perfect memory system
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BaseCPI <= 0 || math.IsNaN(c.BaseCPI) || math.IsInf(c.BaseCPI, 1) {
		return fmt.Errorf("cpu %q: base CPI %v not finite and positive", c.Name, c.BaseCPI)
	}
	return nil
}

// Core tracks one processor's local time and utilization breakdown.
// The platform engine advances cores in minimum-local-time order.
type Core struct {
	cfg Config

	cycles       uint64 // local clock
	instructions uint64
	stallCycles  uint64 // memory stalls
	switchCycles uint64 // task-switch overhead (paper's t_switch)
	idleCycles   uint64 // no runnable task (paper's t_idle)

	cpiMilli  uint64 // BaseCPI in 1/1024 cycle units
	fracAccum uint64 // fractional cycle accumulator, 1/1024 units
}

// New creates a core. It panics on invalid configuration.
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg, cpiMilli: uint64(cfg.BaseCPI*1024 + 0.5)}
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Now returns the core's local time in cycles.
func (c *Core) Now() uint64 { return c.cycles }

// Exec retires n instructions, advancing local time by n*BaseCPI with
// exact fractional accumulation, and returns the cycles consumed.
func (c *Core) Exec(n uint64) uint64 {
	c.instructions += n
	c.fracAccum += n * c.cpiMilli
	cyc := c.fracAccum >> 10
	c.fracAccum &= 1023
	c.cycles += cyc
	return cyc
}

// Stall advances local time by cycles of memory stall.
func (c *Core) Stall(cycles uint64) {
	c.stallCycles += cycles
	c.cycles += cycles
}

// Switch advances local time by cycles of task-switch overhead.
func (c *Core) Switch(cycles uint64) {
	c.switchCycles += cycles
	c.cycles += cycles
}

// Idle advances local time by cycles with no work.
func (c *Core) Idle(cycles uint64) {
	c.idleCycles += cycles
	c.cycles += cycles
}

// AdvanceTo moves local time forward to at least t, accounting the gap as
// idle time. It is a no-op if t is in the past.
func (c *Core) AdvanceTo(t uint64) {
	if t > c.cycles {
		c.idleCycles += t - c.cycles
		c.cycles = t
	}
}

// Instructions returns the number of retired instructions.
func (c *Core) Instructions() uint64 { return c.instructions }

// StallCycles returns accumulated memory-stall cycles.
func (c *Core) StallCycles() uint64 { return c.stallCycles }

// SwitchCycles returns accumulated task-switch cycles.
func (c *Core) SwitchCycles() uint64 { return c.switchCycles }

// IdleCycles returns accumulated idle cycles.
func (c *Core) IdleCycles() uint64 { return c.idleCycles }

// BusyCycles returns cycles spent on useful work plus stalls.
func (c *Core) BusyCycles() uint64 { return c.cycles - c.idleCycles - c.switchCycles }

// CPI returns the effective cycles per instruction including stalls and
// switches but excluding idle time, the metric quoted in the paper
// ("the number of cycles per instruction of every processor").
func (c *Core) CPI() float64 {
	if c.instructions == 0 {
		return 0
	}
	return float64(c.cycles-c.idleCycles) / float64(c.instructions)
}

// Reset clears all counters and the local clock.
func (c *Core) Reset() {
	c.cycles, c.instructions, c.stallCycles = 0, 0, 0
	c.switchCycles, c.idleCycles, c.fracAccum = 0, 0, 0
}
