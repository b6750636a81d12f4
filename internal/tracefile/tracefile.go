// Package tracefile implements the CMTR trace container: a compact,
// versioned binary format that records the complete Ctx-level operation
// stream of every task in a workload, plus the application topology
// needed to replay that stream through the stack-distance profiler and
// both execution engines without re-running the functional apps.
//
// A trace is a complete substitute for live functional execution because
// the system is deterministic at the Ctx API boundary: tasks run in
// strict handoff (exactly one executes at any instant), FIFO blocking
// conditions depend only on token counts, and every charged cycle is a
// pure function of the operation stream, the memory topology and the
// schedule. Recording the stream once therefore reproduces — bit for bit
// — the per-entity statistics, makespans and miss curves of the original
// run under ANY platform configuration, engine or partitioning strategy.
//
// Wire layout (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "CMTR"
//	4       2     format version (currently 1)
//	6       2     flags (must be 0)
//	8       4     header length H
//	12      H     header, canonical JSON (Header)
//	12+H    ...   per-task event streams, concatenated in task order
//	end-4   4     CRC-32C (Castagnoli) over all preceding bytes
//
// Each event stream is a byte-oriented opcode sequence. Word accesses
// carry their address as a signed varint delta from the previous word
// access of the same stream (bulk transfers do not update the delta
// base), which compresses the strided pixel walks of the multimedia
// kernels to 2-3 bytes per access. The container is mmap-friendly:
// decoding slices the streams out of the input buffer without copying.
package tracefile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Magic identifies a CMTR trace container.
const Magic = "CMTR"

// Version is the current wire-format version.
const Version = 1

// Event stream opcodes. The four word-access opcodes fold the
// (op, size) pair of a trace.Access into the opcode byte; exec and bulk
// carry uvarint operands; FIFO events carry the fifo's index in the
// header table. FIFO reads record the observed outcome (token vs EOF) so
// replay can verify it reproduces the recorded dataflow exactly.
const (
	evExec      = 0x00 // uvarint n            — Ctx.Exec(n)
	evRead4     = 0x01 // uvarint region, svarint Δaddr — Load32
	evWrite4    = 0x02 // uvarint region, svarint Δaddr — Store32
	evRead1     = 0x03 // uvarint region, svarint Δaddr — Load8
	evWrite1    = 0x04 // uvarint region, svarint Δaddr — Store8
	evBulkRead  = 0x05 // uvarint region, off, len — LoadBytes
	evBulkWrite = 0x06 // uvarint region, off, len — StoreBytes
	evFifoWrite = 0x07 // uvarint fifo — FIFO.Write (one token)
	evFifoRdOK  = 0x08 // uvarint fifo — FIFO.Read returning a token
	evFifoRdEOF = 0x09 // uvarint fifo — FIFO.Read returning EOF
	evFifoClose = 0x0a // uvarint fifo — FIFO.Close
	evCount     = 0x0b
)

// maxExecRun bounds a single evExec operand; it is far above anything a
// real capture produces and exists only so a corrupt trace cannot demand
// an absurd replay.
const maxExecRun = 1 << 40

// RegionInfo describes one region of the captured address space, in
// allocation (= address) order; its index in Header.Regions is its dense
// mem.RegionID.
type RegionInfo struct {
	Name  string `json:"name"`
	Kind  uint8  `json:"kind"`
	Owner string `json:"owner,omitempty"`
	Base  uint64 `json:"base"`
	Size  uint64 `json:"size"`
}

// TaskInfo describes one task. Region references are indices into
// Header.Regions; -1 means absent (no stack/heap).
type TaskInfo struct {
	Name    string `json:"name"`
	CPU     int    `json:"cpu"`
	Code    int    `json:"code"`
	Stack   int    `json:"stack"`
	Heap    int    `json:"heap"`
	HotCode uint64 `json:"hot_code,omitempty"`
}

// FIFOInfo describes one FIFO channel; Region indexes Header.Regions.
type FIFOInfo struct {
	Name       string `json:"name"`
	Region     int    `json:"region"`
	TokenBytes int    `json:"token_bytes"`
	Cap        int    `json:"cap"`
}

// FrameInfo describes one frame buffer; Region indexes Header.Regions.
type FrameInfo struct {
	Name   string `json:"name"`
	Region int    `json:"region"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Pixel  int    `json:"pixel"`
}

// StreamInfo frames one task's event stream within the payload.
type StreamInfo struct {
	Events uint64 `json:"events"`
	Bytes  uint64 `json:"bytes"`
}

// Meta identifies what was captured. Workload/Scale/Seed are the trace
// stage's content key; imported traces may carry foreign names.
type Meta struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
}

// Header is the JSON-encoded topology and framing block of a trace.
type Header struct {
	Meta Meta `json:"meta"`

	App               string       `json:"app"`
	SplitTaskSections bool         `json:"split_task_sections,omitempty"`
	Regions           []RegionInfo `json:"regions"`
	Tasks             []TaskInfo   `json:"tasks"`
	FIFOs             []FIFOInfo   `json:"fifos,omitempty"`
	Frames            []FrameInfo  `json:"frames,omitempty"`
	Buffers           []int        `json:"buffers,omitempty"`
	ApplData          int          `json:"appl_data"`
	ApplBSS           int          `json:"appl_bss"`
	RTData            int          `json:"rt_data"`
	RTBSS             int          `json:"rt_bss"`

	// Totals over all streams, cross-checked against the streams on
	// decode.
	Events  uint64       `json:"events"`
	Instrs  uint64       `json:"instrs"`
	Streams []StreamInfo `json:"streams"`
}

// Totals tallies the event classes of a validated trace.
type Totals struct {
	Events    uint64
	Instrs    uint64
	Accesses  uint64 // word-granular access events
	BulkOps   uint64
	BulkBytes uint64
	FIFOOps   uint64
}

// Trace is a decoded, validated trace. The stream slices alias the
// encoded buffer, which callers must not mutate.
type Trace struct {
	Header  Header
	Totals  Totals
	data    []byte
	streams [][]byte
}

// Bytes returns the encoded container, suitable for WriteFile or the
// content-addressed store. The caller must not mutate it.
func (t *Trace) Bytes() []byte { return t.data }

// Size returns the encoded container size in bytes.
func (t *Trace) Size() int { return len(t.data) }

// Stream returns task i's encoded event stream (aliasing the container;
// the caller must not mutate it).
func (t *Trace) Stream(i int) []byte { return t.streams[i] }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameLen   = 12 // magic + version + flags + header length
	trailerLen = 4  // CRC-32C
)

// addressSpaceBase mirrors mem.NewAddressSpace's first valid address.
const addressSpaceBase = 0x1000

// addressSpaceLimit mirrors the 4 GiB limit of mem.NewAddressSpace.
const addressSpaceLimit = 1 << 32

// maxCPUID bounds the per-task CPU index accepted from a trace header; a
// platform with more processors than this is not representable anyway.
const maxCPUID = 1 << 16

func (h *Header) validate() error {
	if h.App == "" {
		return fmt.Errorf("tracefile: header has empty app name")
	}
	if len(h.Regions) == 0 {
		return fmt.Errorf("tracefile: header has no regions")
	}
	next := uint64(addressSpaceBase)
	for i, ri := range h.Regions {
		if ri.Name == "" {
			return fmt.Errorf("tracefile: region %d has empty name", i)
		}
		if ri.Kind >= uint8(mem.KindRTBSS)+1 {
			return fmt.Errorf("tracefile: region %q has unknown kind %d", ri.Name, ri.Kind)
		}
		if ri.Size == 0 {
			return fmt.Errorf("tracefile: region %q has zero size", ri.Name)
		}
		if ri.Base < next {
			return fmt.Errorf("tracefile: region %q at %#x overlaps previous region or address-space base", ri.Name, ri.Base)
		}
		if ri.Base+ri.Size < ri.Base || ri.Base+ri.Size > addressSpaceLimit {
			return fmt.Errorf("tracefile: region %q (%#x+%#x) exceeds the 32-bit address space", ri.Name, ri.Base, ri.Size)
		}
		next = ri.Base + ri.Size
	}
	regionOK := func(id int) bool { return id >= 0 && id < len(h.Regions) }
	sectionOK := func(id int) bool { return id == -1 || regionOK(id) }
	if len(h.Tasks) == 0 {
		return fmt.Errorf("tracefile: header has no tasks")
	}
	names := make(map[string]bool, len(h.Tasks))
	for i, ti := range h.Tasks {
		if ti.Name == "" {
			return fmt.Errorf("tracefile: task %d has empty name", i)
		}
		if names[ti.Name] {
			return fmt.Errorf("tracefile: duplicate task name %q", ti.Name)
		}
		names[ti.Name] = true
		if ti.CPU < 0 || ti.CPU >= maxCPUID {
			return fmt.Errorf("tracefile: task %q has invalid cpu %d", ti.Name, ti.CPU)
		}
		if !regionOK(ti.Code) {
			return fmt.Errorf("tracefile: task %q has invalid code region %d", ti.Name, ti.Code)
		}
		if !sectionOK(ti.Stack) || !sectionOK(ti.Heap) {
			return fmt.Errorf("tracefile: task %q has invalid stack/heap region", ti.Name)
		}
	}
	for _, fi := range h.FIFOs {
		if !regionOK(fi.Region) {
			return fmt.Errorf("tracefile: fifo %q has invalid region %d", fi.Name, fi.Region)
		}
		if fi.TokenBytes <= 0 || fi.Cap <= 0 {
			return fmt.Errorf("tracefile: fifo %q has invalid geometry %dB x %d", fi.Name, fi.TokenBytes, fi.Cap)
		}
		need := uint64(fi.TokenBytes) * uint64(fi.Cap)
		if need > h.Regions[fi.Region].Size {
			return fmt.Errorf("tracefile: fifo %q (%d bytes) exceeds its region", fi.Name, need)
		}
	}
	for _, fi := range h.Frames {
		if !regionOK(fi.Region) {
			return fmt.Errorf("tracefile: frame %q has invalid region %d", fi.Name, fi.Region)
		}
		if fi.Width <= 0 || fi.Height <= 0 || fi.Pixel <= 0 {
			return fmt.Errorf("tracefile: frame %q has invalid geometry %dx%dx%d", fi.Name, fi.Width, fi.Height, fi.Pixel)
		}
		need := uint64(fi.Width) * uint64(fi.Height) * uint64(fi.Pixel)
		if need > h.Regions[fi.Region].Size {
			return fmt.Errorf("tracefile: frame %q (%d bytes) exceeds its region", fi.Name, need)
		}
	}
	for _, id := range h.Buffers {
		if !regionOK(id) {
			return fmt.Errorf("tracefile: buffer references invalid region %d", id)
		}
	}
	for _, id := range []int{h.ApplData, h.ApplBSS, h.RTData, h.RTBSS} {
		if !sectionOK(id) {
			return fmt.Errorf("tracefile: section references invalid region %d", id)
		}
	}
	if len(h.Streams) != len(h.Tasks) {
		return fmt.Errorf("tracefile: %d streams for %d tasks", len(h.Streams), len(h.Tasks))
	}
	return nil
}

// accessClass maps a word-access opcode back to (op, size).
func accessClass(op byte) (trace.Op, uint8) {
	switch op {
	case evRead4:
		return trace.Read, 4
	case evWrite4:
		return trace.Write, 4
	case evRead1:
		return trace.Read, 1
	default:
		return trace.Write, 1
	}
}

// validateStreams walks every stream, checking framing (opcodes,
// varints, table indices), deep bounds (addresses and bulk ranges
// inside their regions) and the header's event/instr totals, and
// accumulates Totals. No allocation is proportional to any count
// declared in the header.
func (t *Trace) validateStreams() error {
	h := &t.Header
	var tot Totals
	for si, stream := range t.streams {
		events, err := h.validateStream(si, stream, &tot)
		if err != nil {
			return err
		}
		if events != h.Streams[si].Events {
			return fmt.Errorf("tracefile: task %q: %d events, header declares %d", h.Tasks[si].Name, events, h.Streams[si].Events)
		}
		tot.Events += events
	}
	if tot.Events != h.Events {
		return fmt.Errorf("tracefile: %d events, header declares %d", tot.Events, h.Events)
	}
	if tot.Instrs != h.Instrs {
		return fmt.Errorf("tracefile: %d instructions, header declares %d", tot.Instrs, h.Instrs)
	}
	t.Totals = tot
	return nil
}

// validateStream checks task si's event stream, adding its events to
// tot except Events, and returns its event count. Decoding every
// container runs it over every event, so it decodes inline, like
// replayBody, instead of building an event per step. Bounds checks are
// written so that no sum can wrap: an access near 2^64 is outside every
// region, never inside one.
func (h *Header) validateStream(si int, stream []byte, tot *Totals) (uint64, error) {
	task := h.Tasks[si].Name
	regions, fifos := uint64(len(h.Regions)), uint64(len(h.FIFOs))
	var events, prev uint64
	for pos := 0; pos < len(stream); events++ {
		op := stream[pos]
		pos++
		switch op {
		case evExec:
			n, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			if n > maxExecRun {
				return 0, fmt.Errorf("tracefile: exec run of %d instructions out of range (task %q)", n, task)
			}
			tot.Instrs += n
		case evRead4, evWrite4, evRead1, evWrite1:
			r, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			if r >= regions {
				return 0, fmt.Errorf("tracefile: access references region %d of %d (task %q)", r, regions, task)
			}
			u, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad varint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			d := int64(u >> 1) // zigzag, as binary.Varint
			if u&1 != 0 {
				d = ^d
			}
			addr := uint64(int64(prev) + d)
			prev = addr
			size := uint64(4)
			if op == evRead1 || op == evWrite1 {
				size = 1
			}
			ri := &h.Regions[r]
			if addr < ri.Base || size > ri.Size || addr-ri.Base > ri.Size-size {
				return 0, fmt.Errorf("tracefile: task %q: access at %#x outside region %q", task, addr, ri.Name)
			}
			tot.Accesses++
		case evBulkRead, evBulkWrite:
			r, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			if r >= regions {
				return 0, fmt.Errorf("tracefile: bulk references region %d of %d (task %q)", r, regions, task)
			}
			off, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			n, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			ri := &h.Regions[r]
			if n == 0 || off+n < off || off+n > ri.Size {
				return 0, fmt.Errorf("tracefile: task %q: bulk %d@%d outside region %q", task, n, off, ri.Name)
			}
			tot.BulkOps++
			tot.BulkBytes += n
		case evFifoWrite, evFifoRdOK, evFifoRdEOF, evFifoClose:
			f, sz := uvarintAt(stream, pos)
			if sz <= 0 {
				return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d (task %q)", pos, task)
			}
			pos += sz
			if f >= fifos {
				return 0, fmt.Errorf("tracefile: fifo event references fifo %d of %d (task %q)", f, fifos, task)
			}
			tot.FIFOOps++
		default:
			return 0, fmt.Errorf("tracefile: unknown opcode %#x at stream offset %d (task %q)", op, pos-1, task)
		}
	}
	return events, nil
}

// uvarintAt decodes the uvarint at data[pos:] with binary.Uvarint's
// result convention (a length <= 0 for a truncated or overlong one),
// taking the one- and two-byte encodings that dominate recorded streams
// without a call.
func uvarintAt(data []byte, pos int) (uint64, int) {
	if pos+1 < len(data) {
		b0 := data[pos]
		if b0 < 0x80 {
			return uint64(b0), 1
		}
		if b1 := data[pos+1]; b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
	}
	return binary.Uvarint(data[pos:])
}

// Decode parses and fully validates an encoded trace container. The
// returned Trace aliases data; the caller must not mutate it. Corruption
// anywhere in the container — flipped bits, truncation, bad framing,
// out-of-range references — yields an error, never a panic, and never an
// allocation proportional to a corrupt declared size.
func Decode(data []byte) (*Trace, error) {
	if len(data) < frameLen+trailerLen {
		return nil, fmt.Errorf("tracefile: %d bytes is too short for a trace container", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", data[:4])
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d (want %d)", v, Version)
	}
	if f := binary.BigEndian.Uint16(data[6:8]); f != 0 {
		return nil, fmt.Errorf("tracefile: unsupported flags %#x", f)
	}
	body := data[:len(data)-trailerLen]
	want := binary.BigEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("tracefile: checksum mismatch: %#08x != %#08x", got, want)
	}
	hl := binary.BigEndian.Uint32(data[8:12])
	if uint64(hl) > uint64(len(body)-frameLen) {
		return nil, fmt.Errorf("tracefile: header length %d exceeds container", hl)
	}
	t := &Trace{data: data}
	if err := json.Unmarshal(body[frameLen:frameLen+int(hl)], &t.Header); err != nil {
		return nil, fmt.Errorf("tracefile: decoding header: %w", err)
	}
	if err := t.Header.validate(); err != nil {
		return nil, err
	}
	payload := body[frameLen+int(hl):]
	t.streams = make([][]byte, len(t.Header.Streams))
	var off uint64
	for i, si := range t.Header.Streams {
		if si.Bytes > uint64(len(payload))-off {
			return nil, fmt.Errorf("tracefile: stream %d (%d bytes) exceeds payload", i, si.Bytes)
		}
		t.streams[i] = payload[off : off+si.Bytes]
		off += si.Bytes
	}
	if off != uint64(len(payload)) {
		return nil, fmt.Errorf("tracefile: %d trailing payload bytes after streams", uint64(len(payload))-off)
	}
	if err := t.validateStreams(); err != nil {
		return nil, err
	}
	return t, nil
}

// assemble encodes a header and the streams' bytes, given as chunks in
// stream order, into a container and round-trips it through Decode, so
// every trace ever handed out has passed full validation.
func assemble(h Header, chunks [][]byte) (*Trace, error) {
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("tracefile: encoding header: %w", err)
	}
	total := frameLen + len(hb)
	for _, c := range chunks {
		total += len(c)
	}
	total += trailerLen
	buf := make([]byte, 0, total)
	buf = append(buf, Magic...)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return Decode(buf)
}

// ReadFile loads and validates a trace container from disk.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFile writes the encoded container to path.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, t.data, 0o644)
}
