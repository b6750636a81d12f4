package core

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/kpn"
	"repro/internal/mem"
	"repro/internal/platform"
)

func smallPlatform() platform.Config {
	pc := platform.Default()
	pc.NumCPUs = 2
	// A deliberately small L2 (128 KB) so cache effects appear even on
	// tiny test workloads.
	pc.Topology = pc.Topology.WithLevel("l2", func(l *cache.LevelSpec) { l.Sets = 512 })
	return pc
}

// loopStreamWorkload builds a 2-task app where one task loops over a
// reusable table while the other streams, the canonical interference
// pattern of the paper.
func loopStreamWorkload() Workload {
	return Workload{
		Name: "loop+stream",
		Factory: func() (*App, error) {
			b := NewBuilder("loop+stream")
			b.Sections(4096, 8192)
			f := b.AddFIFO("sync", 4, 4)
			b.AddTask(TaskConfig{
				Name: "looper", CPU: 0, HeapSize: 48 * 1024,
				Body: func(c *kpn.Ctx) {
					h := c.Heap()
					for iter := 0; iter < 60; iter++ {
						for off := uint64(0); off < 32*1024; off += 64 {
							c.Load32(h, off)
							c.Exec(4)
						}
						f.Write32(c, uint32(iter))
					}
					f.Close(c)
				}})
			b.AddTask(TaskConfig{
				Name: "streamer", CPU: 1, HeapSize: 2 * 1024 * 1024,
				Body: func(c *kpn.Ctx) {
					h := c.Heap()
					pos := uint64(0)
					for {
						if _, ok := f.Read32(c); !ok {
							return
						}
						// Flood all 512 L2 sets several times per token.
						for i := 0; i < 2048; i++ {
							c.Store32(h, pos%(2*1024*1024-64), uint32(pos))
							pos += 64
							c.Exec(2)
						}
					}
				}})
			return b.Build()
		},
	}
}

func TestRunSharedVsPartitioned(t *testing.T) {
	w := loopStreamWorkload()
	shared, err := Run(w, RunConfig{Platform: smallPlatform()})
	if err != nil {
		t.Fatal(err)
	}
	// The streamer has no reuse, but its partition must still cover the
	// L1 so dirty victims written back from L1 find their line in L2.
	alloc := Allocation{
		"looper": 32, "streamer": 16, "sync": 1,
		"appl data": 1, "appl bss": 1, "rt data": 1, "rt bss": 1,
	}
	part, err := Run(w, RunConfig{
		Platform: smallPlatform(), Strategy: Partitioned, Alloc: alloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	le := part.Entity("looper")
	ls := shared.Entity("looper")
	if le == nil || ls == nil {
		t.Fatal("looper entity missing")
	}
	// The streamer flushes the looper's table out of the shared L2;
	// partitioning must protect it (the core claim of the paper).
	if le.Misses*4 > ls.Misses {
		t.Errorf("partitioned looper misses %d not ≪ shared %d", le.Misses, ls.Misses)
	}
	if part.TotalMisses() >= shared.TotalMisses() {
		t.Errorf("partitioned total misses %d >= shared %d",
			part.TotalMisses(), shared.TotalMisses())
	}
	if shared.L2MissRate <= part.L2MissRate {
		t.Errorf("miss rate did not improve: %.4f -> %.4f", shared.L2MissRate, part.L2MissRate)
	}
	if part.Strategy != Partitioned || shared.Strategy != Shared {
		t.Error("strategies mislabelled")
	}
}

func TestRunRecordsTaskCycles(t *testing.T) {
	res, err := Run(loopStreamWorkload(), RunConfig{Platform: smallPlatform()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskCycles["looper"] == 0 || res.TaskCycles["streamer"] == 0 {
		t.Errorf("task cycles = %v", res.TaskCycles)
	}
	if res.TaskCPU["looper"] != 0 || res.TaskCPU["streamer"] != 1 {
		t.Errorf("task cpus = %v", res.TaskCPU)
	}
	if res.Energy <= 0 {
		t.Error("no energy accounted")
	}
	if res.CPIMean <= 0 {
		t.Error("no CPI")
	}
}

func TestRunPartitionedWithoutAllocFails(t *testing.T) {
	_, err := Run(loopStreamWorkload(), RunConfig{Platform: smallPlatform(), Strategy: Partitioned})
	if err == nil || !strings.Contains(err.Error(), "without allocation") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCPUFoldsOntoAvailable(t *testing.T) {
	// Task CPU indices beyond NumCPUs wrap instead of failing, so the
	// same workload runs on any platform size.
	w := Workload{
		Name: "wrap",
		Factory: func() (*App, error) {
			b := NewBuilder("wrap")
			b.AddTask(TaskConfig{Name: "t", CPU: 7, Body: func(c *kpn.Ctx) { c.Exec(10) }})
			return b.Build()
		},
	}
	pc := smallPlatform() // 2 CPUs
	res, err := Run(w, RunConfig{Platform: pc})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskCPU["t"] != 1 {
		t.Errorf("cpu = %d, want 7 mod 2 = 1", res.TaskCPU["t"])
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Entities: []EntityResult{
		{Name: "a", Misses: 10},
		{Name: "b", Misses: 5},
	}}
	if r.TotalMisses() != 15 {
		t.Error("TotalMisses wrong")
	}
	if r.Entity("b").Misses != 5 || r.Entity("zz") != nil {
		t.Error("Entity lookup wrong")
	}
}

func TestPowerModelDefaults(t *testing.T) {
	if DefaultPowerModel() == (PowerModel{}) {
		t.Error("default model is zero")
	}
}

func TestL2ObserverReceivesStream(t *testing.T) {
	var observed uint64
	_, err := Run(loopStreamWorkload(), RunConfig{
		Platform: smallPlatform(),
		L2Observer: func(lineAddr uint64, write bool, region mem.RegionID) {
			observed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed == 0 {
		t.Error("observer saw no L2-bound accesses")
	}
}
