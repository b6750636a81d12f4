package trace

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Fetch.String() != "F" {
		t.Error("op strings wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Errorf("unknown op string = %q", Op(9).String())
	}
}

func TestStrideGen(t *testing.T) {
	g := &StrideGen{Base: 0x1000, Stride: 64, Count: 4, Op: Write}
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10C0}
	for i, w := range want {
		a, ok := g.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if a.Addr != w || a.Op != Write || a.Size != 4 {
			t.Errorf("access %d = %+v, want addr %#x", i, a, w)
		}
	}
	if _, ok := g.Next(); ok {
		t.Error("generator not exhausted after Count accesses")
	}
}

func TestLoopGenWraps(t *testing.T) {
	g := &LoopGen{Base: 0, WorkingSet: 16, Stride: 4, Iters: 2}
	var addrs []uint64
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		addrs = append(addrs, a.Addr)
	}
	want := []uint64{0, 4, 8, 12, 0, 4, 8, 12}
	if len(addrs) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("addr %d = %d, want %d", i, addrs[i], want[i])
		}
	}
}

func TestLoopGenDefaultStride(t *testing.T) {
	g := &LoopGen{Base: 0, WorkingSet: 8, Iters: 1}
	a, ok := g.Next()
	if !ok || a.Addr != 0 {
		t.Fatal("first access wrong")
	}
	a, ok = g.Next()
	if !ok || a.Addr != 4 {
		t.Fatalf("default stride not 4: addr %d", a.Addr)
	}
}

func TestRandomGenDeterministicAndBounded(t *testing.T) {
	mk := func() *RandomGen {
		return &RandomGen{Base: 0x1000, WorkingSet: 256, Count: 500, Seed: 42}
	}
	g1, g2 := mk(), mk()
	for i := 0; i < 500; i++ {
		a1, ok1 := g1.Next()
		a2, ok2 := g2.Next()
		if !ok1 || !ok2 {
			t.Fatal("premature exhaustion")
		}
		if a1.Addr != a2.Addr {
			t.Fatalf("not deterministic at %d: %#x vs %#x", i, a1.Addr, a2.Addr)
		}
		if a1.Addr < 0x1000 || a1.Addr >= 0x1000+256 {
			t.Fatalf("address %#x out of working set", a1.Addr)
		}
		if a1.Addr%4 != 0 {
			t.Fatalf("address %#x not word aligned", a1.Addr)
		}
	}
	if _, ok := g1.Next(); ok {
		t.Error("not exhausted")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	g := &Interleave{Gens: []Generator{
		&StrideGen{Base: 0x0, Stride: 4, Count: 2},
		&StrideGen{Base: 0x1000, Stride: 4, Count: 4},
	}}
	var addrs []uint64
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		addrs = append(addrs, a.Addr)
	}
	want := []uint64{0x0, 0x1000, 0x4, 0x1004, 0x1008, 0x100C}
	if len(addrs) != len(want) {
		t.Fatalf("got %v, want %v", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("got %v, want %v", addrs, want)
		}
	}
}

// Property: StrideGen emits exactly Count accesses, strictly increasing
// when stride > 0.
func TestStrideGenProperty(t *testing.T) {
	f := func(base uint32, stride uint8, count uint8) bool {
		st := uint64(stride%63) + 1
		g := &StrideGen{Base: uint64(base), Stride: st, Count: uint64(count)}
		var n uint64
		last := uint64(0)
		for {
			a, ok := g.Next()
			if !ok {
				break
			}
			if n > 0 && a.Addr <= last {
				return false
			}
			last = a.Addr
			n++
		}
		return n == uint64(count)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Interleave preserves the union of the streams.
func TestInterleaveConservationProperty(t *testing.T) {
	f := func(c1, c2, c3 uint8) bool {
		total := uint64(c1) + uint64(c2) + uint64(c3)
		g := &Interleave{Gens: []Generator{
			&StrideGen{Base: 0, Stride: 4, Count: uint64(c1)},
			&StrideGen{Base: 1 << 20, Stride: 4, Count: uint64(c2)},
			&StrideGen{Base: 2 << 20, Stride: 4, Count: uint64(c3)},
		}}
		var n uint64
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		return n == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
