package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/kpn"
	"repro/internal/mem"
	"repro/internal/rtos"
)

func testConfig() Config {
	cfg := Default()
	cfg.NumCPUs = 2
	cfg.Sched.Quantum = 5_000
	return cfg
}

func mkTask(as *mem.AddressSpace, name string, body func(*kpn.Ctx)) *kpn.Process {
	return &kpn.Process{
		Name:    name,
		Body:    body,
		Code:    as.MustAlloc(name+".code", mem.KindCode, name, 8192),
		Heap:    as.MustAlloc(name+".heap", mem.KindHeap, name, 32768),
		HotCode: 1024,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.NumCPUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero CPUs accepted")
	}
	for _, cpi := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		bad = Default()
		bad.BaseCPI = cpi
		if err := bad.Validate(); err == nil {
			t.Errorf("base CPI %v accepted", cpi)
		}
	}
	bad = Default()
	bad.Topology = bad.Topology.WithLevel("l2", func(l *cache.LevelSpec) { l.Sets = 3 })
	if err := bad.Validate(); err == nil {
		t.Error("bad L2 accepted")
	}
}

func TestSingleTaskRuns(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, err := New(testConfig(), as, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint32
	task := mkTask(as, "t0", func(c *kpn.Ctx) {
		h := c.Heap()
		for i := uint64(0); i < 100; i++ {
			c.Store32(h, i*4, uint32(i))
		}
		for i := uint64(0); i < 100; i++ {
			sum += c.Load32(h, i*4)
			c.Exec(4)
		}
	})
	if err := pl.AddTask(task, 0); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4950 {
		t.Errorf("functional result = %d, want 4950", sum)
	}
	if res.Makespan == 0 || res.TotalInstrs != 400 {
		t.Errorf("makespan=%d instrs=%d", res.Makespan, res.TotalInstrs)
	}
	if res.L2.Accesses == 0 {
		t.Error("no L2 traffic observed")
	}
}

func TestPipelineAcrossCPUs(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, err := New(testConfig(), as, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := kpn.MustNewFIFO(as, "pipe", 4, 8)
	const n = 500
	var got []uint32
	prod := mkTask(as, "prod", func(c *kpn.Ctx) {
		for i := uint32(0); i < n; i++ {
			c.Exec(20)
			f.Write32(c, i*3)
		}
		f.Close(c)
	})
	cons := mkTask(as, "cons", func(c *kpn.Ctx) {
		for {
			v, ok := f.Read32(c)
			if !ok {
				return
			}
			c.Exec(10)
			got = append(got, v)
		}
	})
	pl.AddTask(prod, 0)
	pl.AddTask(cons, 1)
	res, err := pl.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint32(i*3) {
			t.Fatalf("token %d = %d", i, v)
		}
	}
	// Both CPUs did work.
	if pl.Cores()[0].Instructions() == 0 || pl.Cores()[1].Instructions() == 0 {
		t.Error("a CPU retired no instructions")
	}
	if res.CPIMean() <= 0 {
		t.Error("CPI mean not positive")
	}
}

func TestDeadlockReported(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, _ := New(testConfig(), as, nil, nil)
	f := kpn.MustNewFIFO(as, "never", 4, 1)
	stuck := mkTask(as, "stuck", func(c *kpn.Ctx) {
		var b [4]byte
		f.Read(c, b[:])
	})
	pl.AddTask(stuck, 0)
	_, err := pl.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck on never") {
		t.Errorf("deadlock summary missing blocked task: %v", err)
	}
}

func TestTaskPanicReported(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, _ := New(testConfig(), as, nil, nil)
	boom := mkTask(as, "boom", func(c *kpn.Ctx) {
		panic("kaboom")
	})
	pl.AddTask(boom, 0)
	if _, err := pl.Run(1_000_000); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunawayGuard(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, _ := New(testConfig(), as, nil, nil)
	long := mkTask(as, "long", func(c *kpn.Ctx) {
		c.Exec(10_000_000)
	})
	pl.AddTask(long, 0)
	if _, err := pl.Run(10_000); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedRegionsBypassL1(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, _ := New(testConfig(), as, nil, nil)
	f := kpn.MustNewFIFO(as, "f", 64, 4)
	prod := mkTask(as, "p", func(c *kpn.Ctx) {
		tok := make([]byte, 64)
		for i := 0; i < 32; i++ {
			f.Write(c, tok)
		}
		f.Close(c)
	})
	cons := mkTask(as, "c", func(c *kpn.Ctx) {
		tok := make([]byte, 64)
		for f.Read(c, tok) {
		}
	})
	pl.AddTask(prod, 0)
	pl.AddTask(cons, 1)
	if _, err := pl.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// FIFO traffic must never enter either L1.
	for i := 0; i < 2; i++ {
		if s := pl.L1(i).RegionStats(f.Region.ID); s.Accesses != 0 {
			t.Errorf("L1 %d saw %d FIFO accesses", i, s.Accesses)
		}
	}
	if s := pl.L2().RegionStats(f.Region.ID); s.Accesses == 0 {
		t.Error("L2 saw no FIFO accesses")
	}
}

func TestOSTrafficOnSwitches(t *testing.T) {
	as := mem.NewAddressSpace()
	rtData := as.MustAlloc("rt.data", mem.KindRTData, "", 4096)
	rtBSS := as.MustAlloc("rt.bss", mem.KindRTBSS, "", 4096)
	cfg := testConfig()
	cfg.NumCPUs = 1
	cfg.Sched.Quantum = 500 // force many switches between two tasks
	pl, _ := New(cfg, as, rtData, rtBSS)
	mk := func(name string) *kpn.Process {
		return mkTask(as, name, func(c *kpn.Ctx) { c.Exec(20_000) })
	}
	pl.AddTask(mk("a"), 0)
	pl.AddTask(mk("b"), 0)
	if _, err := pl.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if s := pl.L2().RegionStats(rtData.ID); s.Accesses == 0 {
		t.Error("no rt-data traffic despite task switches")
	}
	if s := pl.L2().RegionStats(rtBSS.ID); s.Accesses == 0 {
		t.Error("no rt-bss traffic despite task switches")
	}
}

func TestInstallAllocationPartitionsL2(t *testing.T) {
	as := mem.NewAddressSpace()
	pl, _ := New(testConfig(), as, nil, nil)
	task := mkTask(as, "t", func(c *kpn.Ctx) {
		for i := uint64(0); i < 1000; i++ {
			c.Load32(c.Heap(), (i*64)%32768)
		}
	})
	pl.AddTask(task, 0)

	alloc, err := rtos.BuildAllocation(2048, 2, []rtos.AllocEntry{
		{Name: "t", Units: 4, Regions: []mem.RegionID{task.Code.ID, task.Heap.ID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.InstallAllocation(alloc)
	if pl.L2().PartitionTable() == nil {
		t.Fatal("no partition table installed")
	}
	if _, err := pl.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// All of the task's traffic must land in its partition.
	pid := alloc.ByName["t"]
	ps := pl.L2().PartitionStats(pid)
	if ps.Accesses == 0 {
		t.Error("task partition saw no accesses")
	}
	pl.InstallAllocation(nil)
	if pl.L2().PartitionTable() != nil {
		t.Error("InstallAllocation(nil) did not revert to shared")
	}
}

func TestMinTimeOrderKeepsClocksClose(t *testing.T) {
	as := mem.NewAddressSpace()
	cfg := testConfig()
	pl, _ := New(cfg, as, nil, nil)
	// Two independent equal tasks: clocks must stay within ~a quantum of
	// each other while both are live, so final skew is small.
	mk := func(name string) *kpn.Process {
		return mkTask(as, name, func(c *kpn.Ctx) { c.Exec(200_000) })
	}
	pl.AddTask(mk("a"), 0)
	pl.AddTask(mk("b"), 1)
	if _, err := pl.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	t0, t1 := pl.Cores()[0].Now(), pl.Cores()[1].Now()
	diff := int64(t0) - int64(t1)
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*cfg.Sched.Quantum+20_000 {
		t.Errorf("clock skew %d too large (t0=%d t1=%d)", diff, t0, t1)
	}
}

func TestCPIMeanSkipsIdleCores(t *testing.T) {
	r := RunResult{CPIs: []float64{2.0, 0, 1.0, 0}}
	if got := r.CPIMean(); got != 1.5 {
		t.Errorf("CPIMean = %v, want 1.5", got)
	}
	if (RunResult{}).CPIMean() != 0 {
		t.Error("empty CPIMean should be 0")
	}
}
