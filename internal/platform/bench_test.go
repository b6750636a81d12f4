package platform

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// BenchmarkPlatformNew times assembling the default tile over a small
// address space and releasing it: the per-simulation fixed cost every
// run pays before its first access, cache tree and arena recycling
// included.
//
//	go test -run '^$' -bench BenchmarkPlatformNew -benchmem -count 3 ./internal/platform/
func BenchmarkPlatformNew(b *testing.B) {
	cfg := Default()
	as := mem.NewAddressSpace()
	for i := 0; i < 8; i++ {
		as.MustAlloc(fmt.Sprintf("t%d.heap", i), mem.KindHeap, fmt.Sprintf("t%d", i), 4096)
	}
	b.ReportAllocs()
	for b.Loop() {
		p, err := New(cfg, as, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
