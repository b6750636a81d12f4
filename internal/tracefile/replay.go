package tracefile

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// App reconstructs one fresh, runnable application instance from the
// trace: the exact address-space layout (rebuilt with AllocAt so every
// region keeps its captured base, and therefore its cache-index
// behavior), the exact task/FIFO/frame topology, and task bodies that
// interpret the recorded streams instead of running the functional apps.
//
// Replay is bit-identical to live execution. Each body re-issues the
// same Ctx-level operations in the same program order; FIFO operations
// go through the real FIFO (with scratch tokens — payload bytes don't
// affect timing), regenerating the identical blocking conditions,
// ring-buffer traffic and channel statistics; and Exec calls are
// replayed per recorded call, so slice-budget yields and the fractional
// CPI accumulator land on the same cycle. Everything an engine observes
// from a replayed app is therefore exactly what the live app produced.
func (t *Trace) App() (*core.App, error) {
	h := &t.Header
	as := mem.NewAddressSpace()
	regs := make([]*mem.Region, len(h.Regions))
	for i, ri := range h.Regions {
		r, err := as.AllocAt(ri.Name, mem.Kind(ri.Kind), ri.Owner, ri.Base, ri.Size)
		if err != nil {
			return nil, fmt.Errorf("tracefile: rebuilding address space: %w", err)
		}
		regs[i] = r
	}
	section := func(id int) *mem.Region {
		if id < 0 {
			return nil
		}
		return regs[id]
	}
	app := &core.App{
		Name:              h.App,
		AS:                as,
		SplitTaskSections: h.SplitTaskSections,
		ApplData:          section(h.ApplData),
		ApplBSS:           section(h.ApplBSS),
		RTData:            section(h.RTData),
		RTBSS:             section(h.RTBSS),
	}
	fifos := make([]*kpn.FIFO, len(h.FIFOs))
	for i, fi := range h.FIFOs {
		fifos[i] = &kpn.FIFO{
			Name: fi.Name, Region: regs[fi.Region], TokenBytes: fi.TokenBytes, Cap: fi.Cap,
		}
	}
	app.FIFOs = fifos
	for _, fi := range h.Frames {
		app.Frames = append(app.Frames, &kpn.Frame{
			Name: fi.Name, Region: regs[fi.Region], Width: fi.Width, Height: fi.Height, Pixel: fi.Pixel,
		})
	}
	for _, id := range h.Buffers {
		app.Buffers = append(app.Buffers, regs[id])
	}
	for i, ti := range h.Tasks {
		p := &kpn.Process{
			Name:    ti.Name,
			Body:    replayBody(t.streams[i], regs, fifos),
			Code:    regs[ti.Code],
			Stack:   section(ti.Stack),
			Heap:    section(ti.Heap),
			HotCode: ti.HotCode,
		}
		app.Tasks = append(app.Tasks, &core.Task{Proc: p, CPU: ti.CPU})
	}
	return app, nil
}

// replayUvarint decodes a uvarint from a pre-validated stream with
// inline fast paths for the 1- and 2-byte encodings that dominate real
// traces (region indices and small address deltas). A varint that fails
// to decode means the validated stream was corrupted in memory: panic
// (surfacing as a task failure).
func replayUvarint(data []byte, pos int) (uint64, int) {
	b0 := data[pos]
	if b0 < 0x80 {
		return uint64(b0), 1
	}
	// A continuation bit on a validated stream guarantees another byte.
	if b1 := data[pos+1]; b1 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1)<<7, 2
	}
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		panic(fmt.Sprintf("tracefile: validated stream corrupt during replay: bad uvarint at offset %d", pos))
	}
	return v, n
}

// replayVarint is replayUvarint with zigzag decoding.
func replayVarint(data []byte, pos int) (int64, int) {
	u, n := replayUvarint(data, pos)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, n
}

// replayBody returns a task body that interprets one recorded stream.
// This is the hot loop of every warm (trace-hit) profiling or execution
// run, decoding tens of millions of events per paper-scale app, so it
// decodes inline: the stream was fully validated at decode time
// (validateStream), which lets the loop skip per-event error handling
// and bounds rechecks (corruption panics, surfacing as a task failure). The differential replay ≡ live tests
// pin this loop's equivalence with the recorded semantics.
func replayBody(stream []byte, regs []*mem.Region, fifos []*kpn.FIFO) func(*kpn.Ctx) {
	regionIDs := make([]mem.RegionID, len(regs))
	for i, r := range regs {
		regionIDs[i] = r.ID
	}
	return func(c *kpn.Ctx) {
		toks := make([][]byte, len(fifos))
		tok := func(i int) []byte {
			if toks[i] == nil {
				toks[i] = make([]byte, fifos[i].TokenBytes)
			}
			return toks[i]
		}
		var prev uint64
		for pos := 0; pos < len(stream); {
			op := stream[pos]
			pos++
			switch op {
			case evExec:
				n, sz := replayUvarint(stream, pos)
				pos += sz
				c.Exec(n)
			case evRead4, evWrite4, evRead1, evWrite1:
				r, sz := replayUvarint(stream, pos)
				pos += sz
				d, sz2 := replayVarint(stream, pos)
				pos += sz2
				addr := uint64(int64(prev) + d)
				prev = addr
				aop, size := accessClass(op)
				c.ChargeAccess(trace.Access{Addr: addr, Size: size, Op: aop, Region: regionIDs[r]})
			case evBulkRead, evBulkWrite:
				r, sz := replayUvarint(stream, pos)
				pos += sz
				off, sz2 := replayUvarint(stream, pos)
				pos += sz2
				n, sz3 := replayUvarint(stream, pos)
				pos += sz3
				bop := trace.Read
				if op == evBulkWrite {
					bop = trace.Write
				}
				c.ChargeBulk(regs[r], off, n, bop)
			case evFifoWrite, evFifoRdOK, evFifoRdEOF, evFifoClose:
				f, sz := replayUvarint(stream, pos)
				pos += sz
				switch op {
				case evFifoWrite:
					fifos[f].Write(c, tok(int(f)))
				case evFifoRdOK:
					if !fifos[f].Read(c, tok(int(f))) {
						panic(fmt.Sprintf("tracefile: replay divergence: EOF on %q where a token was recorded", fifos[f].Name))
					}
				case evFifoRdEOF:
					if fifos[f].Read(c, tok(int(f))) {
						panic(fmt.Sprintf("tracefile: replay divergence: token on %q where EOF was recorded", fifos[f].Name))
					}
				default:
					fifos[f].Close(c)
				}
			default:
				panic(fmt.Sprintf("tracefile: validated stream corrupt during replay: opcode %#x at offset %d", op, pos-1))
			}
		}
	}
}

// Workload wraps the trace as a core.Workload whose Factory yields a
// fresh replay instance per call — a drop-in substitute for the live
// functional workload in the profiler and both engines.
func (t *Trace) Workload(name string) core.Workload {
	if name == "" {
		name = t.Header.App
	}
	return core.Workload{Name: name, Factory: t.App}
}

// RegisterWorkload registers the trace in the workload registry under
// name, making it addressable from scenario specs and the serve API like
// any built-in workload. This is the importer path for external traces:
// scale and seed in the build config are ignored — a trace is one
// concrete recording.
func RegisterWorkload(name string, t *Trace) error {
	return workloads.Register(name, func(workloads.BuildConfig) core.Workload {
		return t.Workload(name)
	})
}
