package tracefile

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kpn"
	"repro/internal/mem"
	"repro/internal/trace"
)

// taskRecorder accumulates one task's encoded event stream. It
// implements kpn.Recorder; the kpn layer guarantees calls arrive in the
// task's program order with FIFO-internal traffic suppressed.
type taskRecorder struct {
	fifos  map[*kpn.FIFO]int
	full   [][]byte // filled chunks, in stream order
	size   int      // bytes in full
	buf    []byte   // the chunk being filled, after full
	events uint64
	instrs uint64
	prev   uint64
	err    error
}

func (r *taskRecorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Capture chunk sizes: a task's first chunk holds firstChunk bytes and
// each later one twice its predecessor, up to maxChunk, which bounds the
// room a finished stream leaves unfilled in its last chunk.
const (
	firstChunk = 4 << 10
	maxChunk   = 64 << 10
)

// reserve guarantees room for one maximal event record in the chunk
// being filled. A chunk without that room is set aside as it is and a
// larger one takes its place, so an event never straddles two chunks
// and a recorded byte is never copied before assemble copies each
// stream once into the container. Paper-scale streams reach tens of
// megabytes, where doubling one buffer would copy about as many bytes
// again and, at its last doubling, hold up to three times the stream.
func (r *taskRecorder) reserve() {
	const maxEvent = 1 + 3*binary.MaxVarintLen64
	if cap(r.buf)-len(r.buf) >= maxEvent {
		return
	}
	if r.buf != nil {
		r.full = append(r.full, r.buf)
		r.size += len(r.buf)
	}
	r.buf = make([]byte, 0, min(max(firstChunk, 2*cap(r.buf)), maxChunk))
}

func (r *taskRecorder) RecordExec(n uint64) {
	r.reserve()
	r.buf = append(r.buf, evExec)
	r.buf = binary.AppendUvarint(r.buf, n)
	r.events++
	r.instrs += n
}

func (r *taskRecorder) RecordAccess(a trace.Access) {
	var op byte
	switch {
	case a.Op == trace.Read && a.Size == 4:
		op = evRead4
	case a.Op == trace.Write && a.Size == 4:
		op = evWrite4
	case a.Op == trace.Read && a.Size == 1:
		op = evRead1
	case a.Op == trace.Write && a.Size == 1:
		op = evWrite1
	default:
		r.fail(fmt.Errorf("tracefile: unencodable access op=%d size=%d", a.Op, a.Size))
		return
	}
	r.reserve()
	r.buf = append(r.buf, op)
	r.buf = binary.AppendUvarint(r.buf, uint64(a.Region))
	r.buf = binary.AppendVarint(r.buf, int64(a.Addr)-int64(r.prev))
	r.prev = a.Addr
	r.events++
}

func (r *taskRecorder) RecordBulk(region mem.RegionID, off, n uint64, op trace.Op) {
	code := byte(evBulkRead)
	if op == trace.Write {
		code = evBulkWrite
	}
	r.reserve()
	r.buf = append(r.buf, code)
	r.buf = binary.AppendUvarint(r.buf, uint64(region))
	r.buf = binary.AppendUvarint(r.buf, off)
	r.buf = binary.AppendUvarint(r.buf, n)
	r.events++
}

func (r *taskRecorder) fifoEvent(code byte, f *kpn.FIFO) {
	idx, ok := r.fifos[f]
	if !ok {
		r.fail(fmt.Errorf("tracefile: fifo %q is not part of the captured app", f.Name))
		return
	}
	r.reserve()
	r.buf = append(r.buf, code)
	r.buf = binary.AppendUvarint(r.buf, uint64(idx))
	r.events++
}

func (r *taskRecorder) RecordFIFOWrite(f *kpn.FIFO) { r.fifoEvent(evFifoWrite, f) }

func (r *taskRecorder) RecordFIFORead(f *kpn.FIFO, ok bool) {
	if ok {
		r.fifoEvent(evFifoRdOK, f)
	} else {
		r.fifoEvent(evFifoRdEOF, f)
	}
}

func (r *taskRecorder) RecordFIFOClose(f *kpn.FIFO) { r.fifoEvent(evFifoClose, f) }

const (
	// captureSliceBudget is the per-RunSlice cycle budget; effectively
	// unbounded so tasks only yield on FIFO blocking or completion.
	captureSliceBudget = 1 << 40
	// captureMaxCycles aborts a runaway functional app.
	captureMaxCycles = 1 << 50
)

// Capture builds one fresh instance of the workload and records it.
func Capture(w core.Workload, meta Meta) (*Trace, error) {
	app, err := w.Factory()
	if err != nil {
		return nil, fmt.Errorf("tracefile: building %q for capture: %w", w.Name, err)
	}
	return CaptureApp(app, meta)
}

// CaptureApp runs app functionally to completion — one core, no memory
// model (kpn.NoMemory: the recorded stream is timing-independent, so
// capture needs the functional side effects alone), unbounded slices —
// recording every task's Ctx-level operation stream, and returns the
// encoded trace. The app is consumed (apps run exactly once).
//
// The recorded stream is independent of everything this runner chooses:
// capture scheduling cannot reorder a task's own operations (program
// order), and FIFO data flow is deterministic by Kahn semantics, so the
// same streams emerge under any fair schedule and any memory timing.
func CaptureApp(app *core.App, meta Meta) (*Trace, error) {
	fifoIdx := make(map[*kpn.FIFO]int, len(app.FIFOs))
	for i, f := range app.FIFOs {
		fifoIdx[f] = i
	}
	procs := make([]*kpn.Process, len(app.Tasks))
	recs := make([]*taskRecorder, len(app.Tasks))
	for i, t := range app.Tasks {
		rec := &taskRecorder{fifos: fifoIdx}
		t.Proc.Recorder = rec
		procs[i], recs[i] = t.Proc, rec
	}
	kill := func() {
		for _, p := range procs {
			p.Kill()
		}
	}
	c := cpu.New(cpu.Config{ID: 0, Name: "capture", BaseCPI: 1})
	for _, p := range procs {
		p.Start()
	}
	for {
		alive, progress := false, false
		for _, p := range procs {
			if s := p.State(); s == kpn.Done || s == kpn.Failed {
				continue
			}
			alive = true
			if !p.Runnable() {
				continue
			}
			y := p.RunSlice(c, kpn.NoMemory, captureSliceBudget)
			progress = true
			if y.Reason == kpn.YieldFailed {
				kill()
				return nil, fmt.Errorf("tracefile: capturing %q: task %q failed: %w", app.Name, p.Name, y.Err)
			}
			if c.Now() > captureMaxCycles {
				kill()
				return nil, fmt.Errorf("tracefile: capturing %q: runaway after %d cycles", app.Name, c.Now())
			}
		}
		if !alive {
			break
		}
		if !progress {
			blocked := make([]string, 0, len(procs))
			for _, p := range procs {
				if p.State() != kpn.Done {
					blocked = append(blocked, p.Name)
				}
			}
			kill()
			return nil, fmt.Errorf("tracefile: capturing %q: deadlock, blocked tasks: %s", app.Name, strings.Join(blocked, ", "))
		}
	}
	for i, rec := range recs {
		if rec.err != nil {
			return nil, fmt.Errorf("tracefile: capturing %q task %q: %w", app.Name, app.Tasks[i].Proc.Name, rec.err)
		}
	}
	return encodeApp(app, recs, meta)
}

// encodeApp assembles the container from the finished app's topology and
// the recorded streams.
func encodeApp(app *core.App, recs []*taskRecorder, meta Meta) (*Trace, error) {
	sectionID := func(r *mem.Region) int {
		if r == nil {
			return -1
		}
		return int(r.ID)
	}
	h := Header{
		Meta:              meta,
		App:               app.Name,
		SplitTaskSections: app.SplitTaskSections,
		ApplData:          sectionID(app.ApplData),
		ApplBSS:           sectionID(app.ApplBSS),
		RTData:            sectionID(app.RTData),
		RTBSS:             sectionID(app.RTBSS),
	}
	for _, r := range app.AS.Regions() {
		h.Regions = append(h.Regions, RegionInfo{
			Name: r.Name, Kind: uint8(r.Kind), Owner: r.Owner, Base: r.Base, Size: r.Size,
		})
	}
	for _, t := range app.Tasks {
		h.Tasks = append(h.Tasks, TaskInfo{
			Name:    t.Proc.Name,
			CPU:     t.CPU,
			Code:    sectionID(t.Proc.Code),
			Stack:   sectionID(t.Proc.Stack),
			Heap:    sectionID(t.Proc.Heap),
			HotCode: t.Proc.HotCode,
		})
	}
	for _, f := range app.FIFOs {
		h.FIFOs = append(h.FIFOs, FIFOInfo{
			Name: f.Name, Region: int(f.Region.ID), TokenBytes: f.TokenBytes, Cap: f.Cap,
		})
	}
	for _, f := range app.Frames {
		h.Frames = append(h.Frames, FrameInfo{
			Name: f.Name, Region: int(f.Region.ID), Width: f.Width, Height: f.Height, Pixel: f.Pixel,
		})
	}
	for _, b := range app.Buffers {
		h.Buffers = append(h.Buffers, int(b.ID))
	}
	var chunks [][]byte
	for _, rec := range recs {
		chunks = append(append(chunks, rec.full...), rec.buf)
		h.Streams = append(h.Streams, StreamInfo{Events: rec.events, Bytes: uint64(rec.size + len(rec.buf))})
		h.Events += rec.events
		h.Instrs += rec.instrs
	}
	return assemble(h, chunks)
}
