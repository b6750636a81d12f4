package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// FuzzDecode hardens the trace decoder against arbitrary input: corrupt
// containers — truncated, bit-flipped, bad magic, hostile headers or
// event streams — must return an error, never panic, and never allocate
// proportionally to a forged declared size. A trace that does decode
// must be self-consistent: its encoded form is the input, it decodes
// again to the same totals, and every word access lies inside the region
// it names — checked by accessesInRegions, independently of the
// validator.
func FuzzDecode(f *testing.F) {
	tr, err := Capture(miniWorkload(), Meta{Workload: "mini", Scale: "small", Seed: 0})
	if err != nil {
		f.Fatal(err)
	}
	data := tr.Bytes()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(data[:len(data)/2])
	for _, off := range []int{5, 9, 20, len(data) / 2, len(data) - 2} {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		f.Add(mut)
	}
	f.Add(wrappedAccessContainer(f))

	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Decode(in)
		if err != nil {
			return
		}
		if !bytes.Equal(tr.Bytes(), in) {
			t.Fatal("decoded trace does not round-trip its input")
		}
		again, err := Decode(tr.Bytes())
		if err != nil {
			t.Fatalf("re-decode of valid trace failed: %v", err)
		}
		if again.Totals != tr.Totals {
			t.Fatalf("re-decode totals drifted: %+v vs %+v", again.Totals, tr.Totals)
		}
		if err := accessesInRegions(tr); err != nil {
			t.Fatalf("accepted trace: %v", err)
		}
	})
}

// accessesInRegions decodes every word access of a trace with its own
// minimal reader and checks, in 128-bit arithmetic, that the accessed
// bytes [addr, addr+size) lie inside the named region.
func accessesInRegions(tr *Trace) error {
	for si := range tr.Header.Streams {
		s := tr.Stream(si)
		var prev uint64
		operand := func() uint64 {
			v, n := binary.Uvarint(s)
			if n <= 0 {
				panic(fmt.Sprintf("stream %d: bad operand in an accepted trace", si))
			}
			s = s[n:]
			return v
		}
		for len(s) > 0 {
			op := s[0]
			s = s[1:]
			switch {
			case op == evExec || op >= evFifoWrite && op <= evFifoClose:
				operand()
			case op == evBulkRead || op == evBulkWrite:
				operand()
				operand()
				operand()
			case op >= evRead4 && op <= evWrite1:
				ri := tr.Header.Regions[operand()]
				u := operand()
				delta := int64(u>>1) ^ -int64(u&1)
				addr := prev + uint64(delta)
				prev = addr
				size := uint64(4)
				if op == evRead1 || op == evWrite1 {
					size = 1
				}
				end, endCarry := bits.Add64(addr, size, 0)
				limit, limitCarry := bits.Add64(ri.Base, ri.Size, 0)
				if addr < ri.Base || endCarry != 0 || limitCarry == 0 && end > limit {
					return fmt.Errorf("stream %d: access of %d bytes at %#x outside region %q [%#x, +%#x)", si, size, addr, ri.Name, ri.Base, ri.Size)
				}
			default:
				return fmt.Errorf("stream %d: opcode %#x in an accepted trace", si, op)
			}
		}
	}
	return nil
}

// FuzzValidateDifferential requires the inline stream validator and the
// walker-based oracle to accept exactly the same event streams, with
// equal totals, and to reject the rest with the same message. The
// streams run under the mini trace's header, its declared counts set to
// what the oracle decodes, so well-formed streams reach the totals
// checks instead of failing on the counts.
func FuzzValidateDifferential(f *testing.F) {
	tr, err := Capture(miniWorkload(), Meta{Workload: "mini", Scale: "small", Seed: 0})
	if err != nil {
		f.Fatal(err)
	}
	a, b := tr.Stream(0), tr.Stream(1)
	f.Add(a, b)
	f.Add(b, a)
	f.Add([]byte{}, []byte{evRead4, 0, 3})
	f.Add(a[:len(a)/2], b[:len(b)-1])
	for _, off := range []int{0, 1, len(a) / 3, len(a) / 2} {
		mut := bytes.Clone(a)
		mut[off] ^= 0x5a
		f.Add(mut, b)
	}

	f.Fuzz(func(t *testing.T, s0, s1 []byte) {
		h := tr.Header
		h.Streams = slices.Clone(h.Streams)
		streams := [][]byte{s0, s1}
		declareCounts(&h, streams)
		in := &Trace{Header: h, streams: streams}
		want, werr := walkStreams(in)
		gerr := in.validateStreams()
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("validator: %v\noracle:    %v", gerr, werr)
		}
		if gerr == nil && in.Totals != want {
			t.Fatalf("validator totals %+v, oracle %+v", in.Totals, want)
		}
	})
}

// declareCounts sets a header's event and instruction counts to what
// the walker decodes of each stream, up to its first framing error.
func declareCounts(h *Header, streams [][]byte) {
	h.Events, h.Instrs = 0, 0
	for i, s := range streams {
		w := walker{data: s, regions: len(h.Regions), fifos: len(h.FIFOs)}
		var events uint64
		for w.more() {
			ev, err := w.next()
			if err != nil {
				break
			}
			events++
			if ev.op == evExec {
				h.Instrs += ev.n
			}
		}
		h.Streams[i] = StreamInfo{Events: events, Bytes: uint64(len(s))}
		h.Events += events
	}
}
