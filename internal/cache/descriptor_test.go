package cache

import (
	"runtime"
	"testing"
	"time"
)

// TestInternTableReleasesDescriptors checks the intern table holds its
// descriptors weakly: topologies nobody instantiates any more leave the
// table once collected, while a descriptor a Tree still holds stays the
// one equal topologies resolve to.
func TestInternTableReleasesDescriptors(t *testing.T) {
	const numCPUs, topologies = 2, 2000
	l1 := Config{Sets: 64, Ways: 4, LineSize: 64}
	l2 := Config{Sets: 1024, Ways: 4, LineSize: 64}
	held, err := TwoLevel(l1, l2, 1, 7_777_777).Build(numCPUs)
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]string, topologies)
	for i := range keys {
		topo := TwoLevel(l1, l2, 1, uint64(8_000_000+i))
		if _, err := topo.Describe(numCPUs); err != nil {
			t.Fatal(err)
		}
		if keys[i], err = descriptorKey(topo, numCPUs); err != nil {
			t.Fatal(err)
		}
	}
	resident := func() int {
		n := 0
		for _, k := range keys {
			if _, ok := interned.Load(k); ok {
				n++
			}
		}
		return n
	}
	// Cleanups run after the collection that frees their descriptor.
	for deadline := time.Now().Add(10 * time.Second); resident() > 0 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := resident(); n > 0 {
		t.Errorf("%d of %d unused descriptors are still interned", n, topologies)
	}

	d, err := TwoLevel(l1, l2, 1, 7_777_777).Describe(numCPUs)
	if err != nil {
		t.Fatal(err)
	}
	if d != held.Descriptor() {
		t.Error("an equal topology must resolve to the descriptor a live Tree holds")
	}
	runtime.KeepAlive(held)
}
