package kpn

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// newLeafHierarchy builds a private-L1 + shared-L2 path with the given
// leaf set count, the shape the merged engine's register file keys by.
func newLeafHierarchy(sets int) *cache.Hierarchy {
	l1 := cache.New(cache.Config{Name: "l1", Sets: sets, Ways: 4, LineSize: 64})
	l2 := cache.New(cache.Config{Name: "l2", Sets: 2048, Ways: 4, LineSize: 64})
	return cache.NewTwoLevel(l1, l2, 1, 11, &cache.FixedMem{Latency: 40})
}

// spinProc starts a process whose body streams loads over its heap
// forever; each RunSlice runs it until the slice budget is exhausted.
// The caller must Kill it.
func spinProc(as *mem.AddressSpace, name string) *Process {
	p := &Process{
		Name: name,
		Code: as.MustAlloc(name+".code", mem.KindCode, name, 4096),
		Heap: as.MustAlloc(name+".heap", mem.KindHeap, name, 65536),
	}
	p.Body = func(c *Ctx) {
		for {
			for off := uint64(0); off+4 <= p.Heap.Size; off += 4 {
				c.Load32(p.Heap, off)
			}
		}
	}
	p.Start()
	return p
}

// TestResumeNoReallocAcrossGeometries pins the awaitResume fix: with the
// platform's MaxLeafSets hint, a task migrating between differently-sized
// private leaves re-slices its line-register file instead of reallocating
// it on every resume. Before the fix this measured 2 allocations per
// geometry change (slots + keys); it must now be zero in steady state.
func TestResumeNoReallocAcrossGeometries(t *testing.T) {
	as := mem.NewAddressSpace()
	core := cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0})
	small := newLeafHierarchy(64)
	big := newLeafHierarchy(128)

	p := spinProc(as, "spin")
	defer p.Kill()
	p.MaxLeafSets = 128 // what platform.AddTask stamps from the tree

	// Warm up both geometries once (first-touch sizing, cache stats
	// growth), then demand steady-state zero.
	p.RunSlice(core, small, 2000)
	p.RunSlice(core, big, 2000)

	allocs := testing.AllocsPerRun(50, func() {
		p.RunSlice(core, small, 2000)
		p.RunSlice(core, big, 2000)
	})
	if allocs != 0 {
		t.Fatalf("resuming across leaf geometries allocates %.1f objects per slice pair, want 0", allocs)
	}
}

// TestMergedHotPathZeroAllocs pins the merged engine's per-access hot
// path — Ctx.charge, Ctx.access (register repeats, slow walks, dirty
// bookkeeping) and Ctx.chargeBulk — at zero allocations per slice. The
// task streams word loads and stores over its heap and bulk transfers
// through LoadBytes/StoreBytes, exercising repeats, fills, evictions,
// writebacks and line-batched bulk traffic; after one warmup slice (the
// register file's first-touch sizing, cache stat growth), steady-state
// slices must not allocate at all.
func TestMergedHotPathZeroAllocs(t *testing.T) {
	as := mem.NewAddressSpace()
	core := cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0})
	h := newLeafHierarchy(64)

	buf := make([]byte, 256)
	p := &Process{
		Name: "mix",
		Code: as.MustAlloc("mix.code", mem.KindCode, "mix", 4096),
		Heap: as.MustAlloc("mix.heap", mem.KindHeap, "mix", 65536),
	}
	p.Body = func(c *Ctx) {
		for {
			for off := uint64(0); off+4 <= p.Heap.Size; off += 4 {
				c.Store32(p.Heap, off, uint32(off))
				c.Load32(p.Heap, off)
			}
			for off := uint64(0); off+uint64(len(buf)) <= p.Heap.Size; off += uint64(len(buf)) {
				c.LoadBytes(p.Heap, off, buf)
				c.StoreBytes(p.Heap, off, buf)
			}
		}
	}
	p.Start()
	defer p.Kill()

	p.RunSlice(core, h, 5000) // warmup: size the register file, grow stats

	allocs := testing.AllocsPerRun(50, func() {
		p.RunSlice(core, h, 5000)
	})
	if allocs != 0 {
		t.Fatalf("merged-engine hot path allocates %.1f objects per slice, want 0", allocs)
	}
}

// TestFIFOUnblockedOpsZeroAllocs pins a FIFO operation that does not
// block at zero allocations: Write and Read test their condition before
// they build the closure WaitFor would poll, so a task that writes a
// token and reads it straight back, never finding the FIFO full or
// empty, allocates nothing; a closure built on every call would cost
// one allocation per operation.
func TestFIFOUnblockedOpsZeroAllocs(t *testing.T) {
	as := mem.NewAddressSpace()
	core := cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0})
	h := newLeafHierarchy(64)
	f := MustNewFIFO(as, "loop", 16, 4)
	pairs := 0
	p := &Process{
		Name: "loop",
		Code: as.MustAlloc("loop.code", mem.KindCode, "loop", 4096),
		Heap: as.MustAlloc("loop.heap", mem.KindHeap, "loop", 4096),
	}
	p.Body = func(c *Ctx) {
		tok := make([]byte, f.TokenBytes)
		for {
			f.Write(c, tok)
			f.Read(c, tok)
			pairs++
		}
	}
	p.Start()
	defer p.Kill()

	p.RunSlice(core, h, 5000) // warmup: size the register file, grow stats

	before := pairs
	allocs := testing.AllocsPerRun(50, func() {
		p.RunSlice(core, h, 5000)
	})
	perSlice := (pairs - before) / 51 // AllocsPerRun adds one warmup run
	if perSlice == 0 {
		t.Fatal("no Write/Read pair completed in a slice")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per slice of %d unblocked Write/Read pairs, want 0", allocs, perSlice)
	}
}
