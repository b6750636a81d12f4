package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (Config{BaseCPI: 1.0}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cpi := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if err := (Config{BaseCPI: cpi}).Validate(); err == nil {
			t.Errorf("base CPI %v accepted", cpi)
		}
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{BaseCPI: 0})
}

func TestExecIntegerCPI(t *testing.T) {
	c := New(Config{BaseCPI: 1.0})
	if cyc := c.Exec(100); cyc != 100 {
		t.Errorf("Exec(100) = %d cycles, want 100", cyc)
	}
	if c.Now() != 100 || c.Instructions() != 100 {
		t.Errorf("now=%d instr=%d", c.Now(), c.Instructions())
	}
}

func TestExecFractionalCPI(t *testing.T) {
	c := New(Config{BaseCPI: 1.5})
	var total uint64
	for i := 0; i < 1000; i++ {
		total += c.Exec(1)
	}
	if total < 1499 || total > 1501 {
		t.Errorf("1000 instrs at CPI 1.5 = %d cycles, want ~1500", total)
	}
	if c.Now() != total {
		t.Error("clock diverged from returned cycles")
	}
}

func TestStallSwitchIdle(t *testing.T) {
	c := New(Config{BaseCPI: 1.0})
	c.Exec(10)
	c.Stall(40)
	c.Switch(5)
	c.Idle(100)
	if c.Now() != 155 {
		t.Errorf("now = %d, want 155", c.Now())
	}
	if c.StallCycles() != 40 || c.SwitchCycles() != 5 || c.IdleCycles() != 100 {
		t.Errorf("breakdown = %d/%d/%d", c.StallCycles(), c.SwitchCycles(), c.IdleCycles())
	}
	if c.BusyCycles() != 50 {
		t.Errorf("busy = %d, want 50", c.BusyCycles())
	}
}

func TestCPIIncludesStallsExcludesIdle(t *testing.T) {
	c := New(Config{BaseCPI: 1.0})
	c.Exec(100)
	c.Stall(40)
	c.Idle(1000)
	if got := c.CPI(); math.Abs(got-1.4) > 1e-9 {
		t.Errorf("CPI = %v, want 1.4", got)
	}
}

func TestCPIIdleCore(t *testing.T) {
	c := New(Config{BaseCPI: 1.0})
	if c.CPI() != 0 {
		t.Error("CPI of idle core should be 0")
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New(Config{BaseCPI: 1.0})
	c.Exec(10)
	c.AdvanceTo(50)
	if c.Now() != 50 || c.IdleCycles() != 40 {
		t.Errorf("now=%d idle=%d", c.Now(), c.IdleCycles())
	}
	c.AdvanceTo(20) // past: no-op
	if c.Now() != 50 {
		t.Error("AdvanceTo moved time backwards")
	}
}

func TestReset(t *testing.T) {
	c := New(Config{BaseCPI: 1.3})
	c.Exec(100)
	c.Stall(10)
	c.Reset()
	if c.Now() != 0 || c.Instructions() != 0 || c.CPI() != 0 {
		t.Error("reset incomplete")
	}
}

// Property: total cycles from Exec equals round(n*CPI) within one cycle,
// for any split of n into chunks.
func TestExecFractionProperty(t *testing.T) {
	f := func(chunks []uint8, cpiRaw uint8) bool {
		cpi := 0.5 + float64(cpiRaw%32)/16 // 0.5 .. 2.44
		c := New(Config{BaseCPI: cpi})
		var n uint64
		for _, ch := range chunks {
			n += uint64(ch)
			c.Exec(uint64(ch))
		}
		want := float64(n) * float64(uint64(cpi*1024+0.5)) / 1024
		return math.Abs(float64(c.Now())-want) <= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
