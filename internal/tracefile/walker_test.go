package tracefile

import (
	"encoding/binary"
	"fmt"
)

// The generic event walker below was the trace validator before it
// became one inline loop (validateStream). It stays as that loop's test
// oracle: the differential fuzz target requires both to accept exactly
// the same inputs, with the same totals and error messages.

// event is one decoded stream event.
type event struct {
	op     byte
	n      uint64 // exec count / bulk length
	region int
	addr   uint64 // absolute word-access address
	off    uint64 // bulk offset
	fifo   int
}

// walker decodes one event stream sequentially, tracking the delta base.
// It validates framing (opcodes, varints, table indices); deep semantic
// bounds are the caller's job.
type walker struct {
	data    []byte
	pos     int
	prev    uint64
	regions int
	fifos   int
}

func (w *walker) more() bool { return w.pos < len(w.data) }

func (w *walker) uvarint() (uint64, error) {
	v, n := binary.Uvarint(w.data[w.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d", w.pos)
	}
	w.pos += n
	return v, nil
}

func (w *walker) svarint() (int64, error) {
	v, n := binary.Varint(w.data[w.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefile: bad varint at stream offset %d", w.pos)
	}
	w.pos += n
	return v, nil
}

func (w *walker) next() (event, error) {
	var ev event
	ev.op = w.data[w.pos]
	w.pos++
	switch ev.op {
	case evExec:
		n, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if n > maxExecRun {
			return ev, fmt.Errorf("tracefile: exec run of %d instructions out of range", n)
		}
		ev.n = n
	case evRead4, evWrite4, evRead1, evWrite1:
		r, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if r >= uint64(w.regions) {
			return ev, fmt.Errorf("tracefile: access references region %d of %d", r, w.regions)
		}
		d, err := w.svarint()
		if err != nil {
			return ev, err
		}
		ev.region = int(r)
		ev.addr = uint64(int64(w.prev) + d)
		w.prev = ev.addr
	case evBulkRead, evBulkWrite:
		r, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if r >= uint64(w.regions) {
			return ev, fmt.Errorf("tracefile: bulk references region %d of %d", r, w.regions)
		}
		off, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		n, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		ev.region, ev.off, ev.n = int(r), off, n
	case evFifoWrite, evFifoRdOK, evFifoRdEOF, evFifoClose:
		f, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if f >= uint64(w.fifos) {
			return ev, fmt.Errorf("tracefile: fifo event references fifo %d of %d", f, w.fifos)
		}
		ev.fifo = int(f)
	default:
		return ev, fmt.Errorf("tracefile: unknown opcode %#x at stream offset %d", ev.op, w.pos-1)
	}
	return ev, nil
}

// walkStreams is the walker-based validator: validateStreams' checks
// and messages, computed event by event. It returns the totals instead
// of storing them.
func walkStreams(t *Trace) (Totals, error) {
	h := &t.Header
	var tot Totals
	for si, stream := range t.streams {
		w := walker{data: stream, regions: len(h.Regions), fifos: len(h.FIFOs)}
		var events uint64
		for w.more() {
			ev, err := w.next()
			if err != nil {
				return Totals{}, fmt.Errorf("%w (task %q)", err, h.Tasks[si].Name)
			}
			events++
			switch ev.op {
			case evExec:
				tot.Instrs += ev.n
			case evRead4, evWrite4, evRead1, evWrite1:
				_, size := accessClass(ev.op)
				ri := h.Regions[ev.region]
				if ev.addr < ri.Base || uint64(size) > ri.Size || ev.addr-ri.Base > ri.Size-uint64(size) {
					return Totals{}, fmt.Errorf("tracefile: task %q: access at %#x outside region %q", h.Tasks[si].Name, ev.addr, ri.Name)
				}
				tot.Accesses++
			case evBulkRead, evBulkWrite:
				ri := h.Regions[ev.region]
				if ev.n == 0 || ev.off+ev.n < ev.off || ev.off+ev.n > ri.Size {
					return Totals{}, fmt.Errorf("tracefile: task %q: bulk %d@%d outside region %q", h.Tasks[si].Name, ev.n, ev.off, ri.Name)
				}
				tot.BulkOps++
				tot.BulkBytes += ev.n
			default:
				tot.FIFOOps++
			}
		}
		if events != h.Streams[si].Events {
			return Totals{}, fmt.Errorf("tracefile: task %q: %d events, header declares %d", h.Tasks[si].Name, events, h.Streams[si].Events)
		}
		tot.Events += events
	}
	if tot.Events != h.Events {
		return Totals{}, fmt.Errorf("tracefile: %d events, header declares %d", tot.Events, h.Events)
	}
	if tot.Instrs != h.Instrs {
		return Totals{}, fmt.Errorf("tracefile: %d instructions, header declares %d", tot.Instrs, h.Instrs)
	}
	return tot, nil
}
