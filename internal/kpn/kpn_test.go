package kpn

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// stubMem counts accesses by op and charges a constant latency.
type stubMem struct {
	lat     uint64
	fetches uint64
	reads   uint64
	writes  uint64
}

func (m *stubMem) AccessAt(a trace.Access, now uint64) uint64 {
	switch a.Op {
	case trace.Fetch:
		m.fetches++
	case trace.Read:
		m.reads++
	case trace.Write:
		m.writes++
	}
	return m.lat
}

// harness is a minimal round-robin engine over one core.
type harness struct {
	t     *testing.T
	core  *cpu.Core
	mem   *stubMem
	procs []*Process
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:    t,
		core: cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0}),
		mem:  &stubMem{lat: 2},
	}
}

func (h *harness) addProc(as *mem.AddressSpace, name string, body func(*Ctx)) *Process {
	p := &Process{
		Name: name,
		Body: body,
		Code: as.MustAlloc(name+".code", mem.KindCode, name, 4096),
		Heap: as.MustAlloc(name+".heap", mem.KindHeap, name, 65536),
	}
	h.procs = append(h.procs, p)
	return p
}

// run drives all processes to completion with the given quantum, failing
// the test on deadlock or task panic. It returns total slices granted.
func (h *harness) run(budget int64) int {
	for _, p := range h.procs {
		p.Start()
	}
	slices := 0
	for {
		progressed := false
		alldone := true
		for _, p := range h.procs {
			if p.State() != Done && p.State() != Failed {
				alldone = false
			}
			if !p.Runnable() {
				continue
			}
			y := p.RunSlice(h.core, h.mem, budget)
			slices++
			progressed = true
			if y.Reason == YieldFailed {
				h.t.Fatalf("process %s failed: %v", p.Name, y.Err)
			}
		}
		if alldone {
			return slices
		}
		if !progressed {
			h.t.Fatal("deadlock: no runnable process")
		}
	}
}

func TestProducerConsumerIntegrity(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "pc.fifo", 4, 4)
	const n = 100
	var got []uint32
	h.addProc(as, "prod", func(c *Ctx) {
		for i := uint32(0); i < n; i++ {
			f.Write32(c, i*i)
		}
		f.Close(c)
	})
	h.addProc(as, "cons", func(c *Ctx) {
		for {
			v, ok := f.Read32(c)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	h.run(10000)
	if len(got) != n {
		t.Fatalf("consumed %d tokens, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint32(i*i) {
			t.Fatalf("token %d = %d, want %d", i, v, i*i)
		}
	}
	if f.Produced() != n || f.Consumed() != n {
		t.Errorf("produced/consumed = %d/%d", f.Produced(), f.Consumed())
	}
	if f.MaxDepth() < 1 || f.MaxDepth() > 4 {
		t.Errorf("max depth = %d, want in [1,4]", f.MaxDepth())
	}
}

func TestFIFOBlocksWhenFull(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "f", 4, 2)
	var consumerStarted bool
	h.addProc(as, "prod", func(c *Ctx) {
		for i := uint32(0); i < 10; i++ {
			f.Write32(c, i)
		}
		f.Close(c)
	})
	h.addProc(as, "cons", func(c *Ctx) {
		consumerStarted = true
		for {
			if _, ok := f.Read32(c); !ok {
				return
			}
		}
	})
	h.run(1 << 30) // effectively no quantum: blocking forces the handoff
	if !consumerStarted {
		t.Error("consumer never ran — producer did not block on full FIFO")
	}
	if f.Consumed() != 10 {
		t.Errorf("consumed = %d, want 10", f.Consumed())
	}
}

func TestFIFOEOF(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "f", 4, 8)
	drained := -1
	h.addProc(as, "prod", func(c *Ctx) {
		f.Write32(c, 1)
		f.Write32(c, 2)
		f.Close(c)
	})
	h.addProc(as, "cons", func(c *Ctx) {
		n := 0
		for {
			if _, ok := f.Read32(c); !ok {
				drained = n
				return
			}
			n++
		}
	})
	h.run(10000)
	if drained != 2 {
		t.Errorf("tokens before EOF = %d, want 2", drained)
	}
	if !f.Closed() {
		t.Error("FIFO should report closed")
	}
}

func TestWriteAfterClosePanics(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "f", 4, 8)
	p := h.addProc(as, "prod", func(c *Ctx) {
		f.Close(c)
		f.Write32(c, 1)
	})
	p.Start()
	y := p.RunSlice(h.core, h.mem, 1<<30)
	if y.Reason != YieldFailed || y.Err == nil {
		t.Fatalf("yield = %+v, want failure", y)
	}
	if !strings.Contains(y.Err.Error(), "write after close") {
		t.Errorf("err = %v", y.Err)
	}
}

func TestTokenSizeMismatchPanics(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "f", 8, 2)
	p := h.addProc(as, "prod", func(c *Ctx) {
		f.Write(c, make([]byte, 4)) // wrong size
	})
	p.Start()
	if y := p.RunSlice(h.core, h.mem, 1<<30); y.Reason != YieldFailed {
		t.Fatal("size mismatch not detected")
	}
}

func TestNewFIFOValidation(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := NewFIFO(as, "f", 0, 4); err == nil {
		t.Error("zero token size accepted")
	}
	if _, err := NewFIFO(as, "f", 4, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	f, err := NewFIFO(as, "ok", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Region.Kind != mem.KindFIFO || f.Region.Size != 16 {
		t.Errorf("region = %+v", f.Region)
	}
}

func TestQuantumYields(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	h.addProc(as, "worker", func(c *Ctx) {
		c.Exec(10000)
	})
	slices := h.run(100) // 100-cycle quantum, ~10k cycles of work
	if slices < 50 {
		t.Errorf("slices = %d, want many (quantum preemption)", slices)
	}
}

func TestExecIssuesInstructionFetches(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	h.addProc(as, "w", func(c *Ctx) {
		c.Exec(64) // 64 instrs / 16 per line = 4 fetches
	})
	h.run(1 << 30)
	if h.mem.fetches != 4 {
		t.Errorf("fetches = %d, want 4", h.mem.fetches)
	}
}

func TestExecHotCodeWraps(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	p := h.addProc(as, "w", func(c *Ctx) {
		c.Exec(16 * 4 * 10) // 40 line fetches over a 2-line hot loop
	})
	p.HotCode = 128
	var addrs []uint64
	rec := recordingMem{}
	p.Start()
	for p.State() != Done {
		p.RunSlice(h.core, &rec, 1<<30)
	}
	for _, a := range rec.accesses {
		if a.Op == trace.Fetch {
			addrs = append(addrs, a.Addr)
		}
	}
	if len(addrs) != 40 {
		t.Fatalf("fetches = %d, want 40", len(addrs))
	}
	base := p.Code.Base
	for i, a := range addrs {
		want := base + uint64(i%2)*64
		if a != want {
			t.Fatalf("fetch %d addr = %#x, want %#x (hot wrap)", i, a, want)
		}
	}
}

type recordingMem struct {
	accesses []trace.Access
}

func (m *recordingMem) AccessAt(a trace.Access, now uint64) uint64 {
	m.accesses = append(m.accesses, a)
	return 0
}

func TestCtxLoadStoreRoundTrip(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	var got32 uint32
	var got8 byte
	h.addProc(as, "w", func(c *Ctx) {
		heap := c.Heap()
		c.Store32(heap, 16, 0xCAFEBABE)
		got32 = c.Load32(heap, 16)
		c.Store8(heap, 100, 0x5A)
		got8 = c.Load8(heap, 100)
	})
	h.run(1 << 30)
	if got32 != 0xCAFEBABE || got8 != 0x5A {
		t.Errorf("round trip = %#x, %#x", got32, got8)
	}
	if h.mem.reads != 2 || h.mem.writes != 2 {
		t.Errorf("reads/writes = %d/%d, want 2/2", h.mem.reads, h.mem.writes)
	}
}

func TestLoadStoreBytesChargesPerWord(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	h.addProc(as, "w", func(c *Ctx) {
		buf := make([]byte, 64)
		c.StoreBytes(c.Heap(), 0, buf)
		c.LoadBytes(c.Heap(), 0, buf)
	})
	h.run(1 << 30)
	if h.mem.writes != 16 || h.mem.reads != 16 {
		t.Errorf("writes/reads = %d/%d, want 16/16", h.mem.writes, h.mem.reads)
	}
}

func TestMemoryStallsAccumulate(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	h.mem.lat = 10
	h.addProc(as, "w", func(c *Ctx) {
		for i := uint64(0); i < 8; i++ {
			c.Load32(c.Heap(), i*4)
		}
	})
	h.run(1 << 30)
	if h.core.StallCycles() != 80 {
		t.Errorf("stalls = %d, want 80", h.core.StallCycles())
	}
}

// countingRecorder counts the operations a task records.
type countingRecorder struct{ execs, instrs, accesses, bulks int }

func (r *countingRecorder) RecordExec(n uint64)                               { r.execs++; r.instrs += int(n) }
func (r *countingRecorder) RecordAccess(trace.Access)                         { r.accesses++ }
func (r *countingRecorder) RecordBulk(mem.RegionID, uint64, uint64, trace.Op) { r.bulks++ }
func (r *countingRecorder) RecordFIFOWrite(*FIFO)                             {}
func (r *countingRecorder) RecordFIFORead(*FIFO, bool)                        {}
func (r *countingRecorder) RecordFIFOClose(*FIFO)                             {}

// TestNoMemoryRunsFunctionally checks the mode trace capture runs in: a
// task resumed with NoMemory moves real bytes, keeps its bounds checks,
// records every operation and still yields when its slice budget runs
// out, while its core advances by its instructions alone.
func TestNoMemoryRunsFunctionally(t *testing.T) {
	as := mem.NewAddressSpace()
	core := cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0})
	rec := &countingRecorder{}
	var got32 uint32
	got := make([]byte, 64)
	p := &Process{
		Name:     "w",
		Code:     as.MustAlloc("w.code", mem.KindCode, "w", 4096),
		Heap:     as.MustAlloc("w.heap", mem.KindHeap, "w", 4096),
		Recorder: rec,
		Body: func(c *Ctx) {
			c.Exec(100)
			c.Store32(c.Heap(), 16, 0xCAFEBABE)
			got32 = c.Load32(c.Heap(), 16)
			c.StoreBytes(c.Heap(), 128, []byte(strings.Repeat("x", 64)))
			c.LoadBytes(c.Heap(), 128, got)
			c.Exec(28)
			c.Store32(c.Heap(), 4096, 1) // out of range: fails the task
		},
	}
	p.Start()
	if y := p.RunSlice(core, NoMemory, 50); y.Reason != YieldQuantum {
		t.Fatalf("a 50-cycle slice of 100 instructions yielded %v, want the quantum", y.Reason)
	}
	y := p.RunSlice(core, NoMemory, 1<<30)
	if y.Reason != YieldFailed || !strings.Contains(y.Err.Error(), "outside region bounds") {
		t.Fatalf("an out-of-range store under NoMemory yielded %v (%v), want the bounds failure", y.Reason, y.Err)
	}
	if got32 != 0xCAFEBABE || string(got) != strings.Repeat("x", 64) {
		t.Errorf("round trips read %#x and %q", got32, got)
	}
	if core.Now() != 128 || core.StallCycles() != 0 || core.Instructions() != 128 {
		t.Errorf("core at %d cycles, %d stalled, %d instructions; want 128, 0, 128", core.Now(), core.StallCycles(), core.Instructions())
	}
	if rec.execs != 2 || rec.instrs != 128 || rec.accesses != 2 || rec.bulks != 2 {
		t.Errorf("recorded %+v, want 2 execs of 128 instructions, 2 accesses and 2 bulk transfers", *rec)
	}
}

func TestProcessLifecyclePanics(t *testing.T) {
	as := mem.NewAddressSpace()
	t.Run("double start", func(t *testing.T) {
		p := &Process{Name: "x", Body: func(*Ctx) {},
			Code: as.MustAlloc("x.code", mem.KindCode, "x", 64)}
		p.Start()
		defer func() {
			if recover() == nil {
				t.Fatal("double Start did not panic")
			}
		}()
		p.Start()
	})
	t.Run("no body", func(t *testing.T) {
		p := &Process{Name: "y", Code: as.MustAlloc("y.code", mem.KindCode, "y", 64)}
		defer func() {
			if recover() == nil {
				t.Fatal("missing body did not panic")
			}
		}()
		p.Start()
	})
	t.Run("no code", func(t *testing.T) {
		p := &Process{Name: "z", Body: func(*Ctx) {}}
		defer func() {
			if recover() == nil {
				t.Fatal("missing code region did not panic")
			}
		}()
		p.Start()
	})
}

func TestKill(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	f := MustNewFIFO(as, "f", 4, 1)
	p := h.addProc(as, "stuck", func(c *Ctx) {
		var b [4]byte
		f.Read(c, b[:]) // blocks forever
	})
	p.Start()
	p.RunSlice(h.core, h.mem, 1<<30) // runs until blocked
	if p.State() != Blocked {
		t.Fatalf("state = %v, want blocked", p.State())
	}
	p.Kill()
	if p.State() != Failed {
		t.Errorf("state after kill = %v", p.State())
	}
	p.Kill() // idempotent on finished process
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Created: "created", Ready: "ready", Blocked: "blocked",
		Running: "running", Done: "done", Failed: "failed",
	} {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() != "state(99)" {
		t.Error("unknown state string")
	}
}

func TestFrameOps(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	fr := MustNewFrame(as, "frame", 8, 4, 1)
	var diag []byte
	h.addProc(as, "w", func(c *Ctx) {
		for y := 0; y < 4; y++ {
			for x := 0; x < 8; x++ {
				fr.Store8(c, x, y, byte(x*y))
			}
		}
		for i := 0; i < 4; i++ {
			diag = append(diag, fr.Load8(c, i, i))
		}
		row := make([]byte, 8)
		fr.LoadRow(c, 2, row)
		if row[3] != 6 {
			panic("row mismatch")
		}
		fr.StoreRow(c, 0, row)
	})
	h.run(1 << 30)
	want := []byte{0, 1, 4, 9}
	for i := range want {
		if diag[i] != want[i] {
			t.Errorf("diag[%d] = %d, want %d", i, diag[i], want[i])
		}
	}
}

func TestFrameBoundsPanic(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	fr := MustNewFrame(as, "frame", 4, 4, 1)
	p := h.addProc(as, "w", func(c *Ctx) {
		fr.Load8(c, 4, 0)
	})
	p.Start()
	if y := p.RunSlice(h.core, h.mem, 1<<30); y.Reason != YieldFailed {
		t.Fatal("out-of-bounds pixel not detected")
	}
}

func TestNewFrameValidation(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := NewFrame(as, "f", 0, 4, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewFrame(as, "f", 4, 4, 0); err == nil {
		t.Error("zero pixel size accepted")
	}
}

func TestFrame32(t *testing.T) {
	as := mem.NewAddressSpace()
	h := newHarness(t)
	fr := MustNewFrame(as, "frame", 4, 4, 4)
	var got uint32
	h.addProc(as, "w", func(c *Ctx) {
		fr.Store32(c, 2, 3, 0x11223344)
		got = fr.Load32(c, 2, 3)
	})
	h.run(1 << 30)
	if got != 0x11223344 {
		t.Errorf("32-bit pixel = %#x", got)
	}
}

// Property: for any sequence of writes, a FIFO delivers exactly the same
// sequence (Kahn determinism: order and values preserved).
func TestFIFOOrderProperty(t *testing.T) {
	f := func(vals []uint32, capRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		capTok := int(capRaw%7) + 1
		as := mem.NewAddressSpace()
		h := newHarness(t)
		fifo := MustNewFIFO(as, "f", 4, capTok)
		var got []uint32
		h.addProc(as, "p", func(c *Ctx) {
			for _, v := range vals {
				fifo.Write32(c, v)
			}
			fifo.Close(c)
		})
		h.addProc(as, "c", func(c *Ctx) {
			for {
				v, ok := fifo.Read32(c)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		h.run(64)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestChargeBulkOddSizesAndStraddles verifies the word decomposition of
// bulk transfers: 4-byte words from the start offset, a short final word,
// and line-straddling words left intact — the exact stream a memcpy loop
// would issue.
func TestChargeBulkOddSizesAndStraddles(t *testing.T) {
	for _, tc := range []struct {
		off  uint64
		n    int
		want []uint8 // expected access sizes in order
	}{
		{0, 7, []uint8{4, 3}},
		{1, 13, []uint8{4, 4, 4, 1}},
		{62, 8, []uint8{4, 4}}, // words straddle the 64 B line boundary
		{61, 6, []uint8{4, 2}}, // first word straddles
		{0, 1, []uint8{1}},
		{63, 2, []uint8{2}}, // single straddling short word
	} {
		as := mem.NewAddressSpace()
		h := newHarness(t)
		rec := recordingMem{}
		var wrote, read bool
		p := h.addProc(as, "w", func(c *Ctx) {
			buf := make([]byte, tc.n)
			for i := range buf {
				buf[i] = byte(i + 1)
			}
			c.StoreBytes(c.Heap(), tc.off, buf)
			wrote = true
			got := make([]byte, tc.n)
			c.LoadBytes(c.Heap(), tc.off, got)
			read = true
			for i := range got {
				if got[i] != buf[i] {
					panic("bulk round trip mismatch")
				}
			}
		})
		p.Start()
		for p.State() != Done && p.State() != Failed {
			if y := p.RunSlice(h.core, &rec, 1<<30); y.Reason == YieldFailed {
				t.Fatalf("off=%d n=%d: %v", tc.off, tc.n, y.Err)
			}
		}
		if !wrote || !read {
			t.Fatalf("off=%d n=%d: body did not complete", tc.off, tc.n)
		}
		var stores, loads []trace.Access
		for _, a := range rec.accesses {
			switch a.Op {
			case trace.Write:
				stores = append(stores, a)
			case trace.Read:
				loads = append(loads, a)
			}
		}
		check := func(kind string, got []trace.Access) {
			if len(got) != len(tc.want) {
				t.Fatalf("off=%d n=%d: %s accesses = %d, want %d", tc.off, tc.n, kind, len(got), len(tc.want))
			}
			addr := h.procs[len(h.procs)-1].Heap.Base + tc.off
			for i, a := range got {
				if a.Size != tc.want[i] || a.Addr != addr {
					t.Errorf("off=%d n=%d: %s[%d] = addr %#x size %d, want addr %#x size %d",
						tc.off, tc.n, kind, i, a.Addr, a.Size, addr, tc.want[i])
				}
				addr += uint64(a.Size)
			}
		}
		check("store", stores)
		check("load", loads)
	}
}

// TestBulkEnginesBitIdentical drives one task issuing odd-size bulk
// transfers, straddles and byte runs through a real two-level hierarchy
// under both execution engines and requires identical cache statistics,
// stall cycles and consumed cycles.
func TestBulkEnginesBitIdentical(t *testing.T) {
	run := func(wordExact bool) (cache.Stats, cache.Stats, uint64, uint64) {
		as := mem.NewAddressSpace()
		l1 := cache.New(cache.Config{Name: "l1", Sets: 8, Ways: 2, LineSize: 64})
		l2 := cache.New(cache.Config{Name: "l2", Sets: 64, Ways: 4, LineSize: 64})
		h := cache.NewTwoLevel(l1, l2, 1, 8, &cache.FixedMem{Latency: 40})
		core := cpu.New(cpu.Config{Name: "p0", BaseCPI: 1.0})
		p := &Process{
			Name:      "w",
			WordExact: wordExact,
			Code:      as.MustAlloc("w.code", mem.KindCode, "w", 4096),
			Heap:      as.MustAlloc("w.heap", mem.KindHeap, "w", 65536),
			HotCode:   128,
			Body: func(c *Ctx) {
				buf := make([]byte, 200)
				for i := range buf {
					buf[i] = byte(i)
				}
				for it := uint64(0); it < 50; it++ {
					c.StoreBytes(c.Heap(), it*13%1000+1, buf[:7+it%190])
					c.LoadBytes(c.Heap(), it*29%2000, buf[:1+it%200])
					c.Exec(30)
					for j := uint64(0); j < 70; j++ {
						c.Store8(c.Heap(), 4096+it*64+j, byte(j))
					}
				}
			},
		}
		p.Start()
		for p.State() != Done && p.State() != Failed {
			if y := p.RunSlice(core, h, 97); y.Reason == YieldFailed {
				t.Fatal(y.Err)
			}
		}
		return l1.Stats(), l2.Stats(), core.StallCycles(), p.ConsumedCycles()
	}
	l1f, l2f, stallF, consF := run(false)
	l1w, l2w, stallW, consW := run(true)
	if l1f != l1w {
		t.Errorf("L1 stats: merged %+v vs word %+v", l1f, l1w)
	}
	if l2f != l2w {
		t.Errorf("L2 stats: merged %+v vs word %+v", l2f, l2w)
	}
	if stallF != stallW || consF != consW {
		t.Errorf("stall/consumed: merged %d/%d vs word %d/%d", stallF, consF, stallW, consW)
	}
}
