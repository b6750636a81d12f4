package kpn

import (
	"fmt"

	"repro/internal/mem"
)

// FIFO is a bounded YAPI channel. Tokens are fixed-size byte blocks held
// in a ring buffer inside a dedicated region of the simulated address
// space, so every production and consumption generates the memory traffic
// the L2 cache sees on the real platform. Reads on an empty open FIFO and
// writes on a full FIFO block the calling task (Kahn semantics with the
// bounded-FIFO extension of practical YAPI).
type FIFO struct {
	Name       string
	Region     *mem.Region
	TokenBytes int
	Cap        int // capacity in tokens

	head     uint64 // consumed tokens (monotonic)
	tail     uint64 // produced tokens (monotonic)
	closed   bool
	produced uint64
	consumed uint64
	maxDepth int
}

// NewFIFO creates a FIFO backed by its own region inside as. The region
// name is the FIFO name, kind KindFIFO, so the cache partitioner can give
// the buffer its own exclusive sets.
func NewFIFO(as *mem.AddressSpace, name string, tokenBytes, capTokens int) (*FIFO, error) {
	if tokenBytes <= 0 || capTokens <= 0 {
		return nil, fmt.Errorf("kpn: fifo %q: token %dB cap %d invalid", name, tokenBytes, capTokens)
	}
	r, err := as.Alloc(name, mem.KindFIFO, "", uint64(tokenBytes*capTokens))
	if err != nil {
		return nil, err
	}
	return &FIFO{Name: name, Region: r, TokenBytes: tokenBytes, Cap: capTokens}, nil
}

// MustNewFIFO is NewFIFO that panics on error.
func MustNewFIFO(as *mem.AddressSpace, name string, tokenBytes, capTokens int) *FIFO {
	f, err := NewFIFO(as, name, tokenBytes, capTokens)
	if err != nil {
		panic(err)
	}
	return f
}

// Len returns the number of tokens currently buffered.
func (f *FIFO) Len() int { return int(f.tail - f.head) }

// Empty reports whether no token is buffered.
func (f *FIFO) Empty() bool { return f.tail == f.head }

// Full reports whether the buffer is at capacity.
func (f *FIFO) Full() bool { return f.Len() >= f.Cap }

// Closed reports whether the producer has signalled end of stream.
func (f *FIFO) Closed() bool { return f.closed }

// Produced returns the total number of tokens ever written.
func (f *FIFO) Produced() uint64 { return f.produced }

// Consumed returns the total number of tokens ever read.
func (f *FIFO) Consumed() uint64 { return f.consumed }

// MaxDepth returns the high-water mark in tokens.
func (f *FIFO) MaxDepth() int { return f.maxDepth }

// Close marks the end of the stream. Subsequent reads drain the buffer
// and then return false. Closing twice is a no-op; writing after Close
// panics. The closing task passes its Ctx so trace capture records the
// close at its exact position in the task's stream (the point at which
// blocked readers become eligible to observe EOF); c may be nil in
// engine-external teardown (tests).
func (f *FIFO) Close(c *Ctx) {
	f.closed = true
	if c != nil && c.rec != nil && c.recMute == 0 {
		c.rec.RecordFIFOClose(f)
	}
}

// Write blocks until space is available, then copies one token into the
// ring buffer, charging the memory accesses to the FIFO's region.
// Capture records it as a single event — the internal StoreBytes is
// suppressed — and replay re-issues the real Write, regenerating the
// identical blocking condition, ring-slot traffic and statistics.
func (f *FIFO) Write(c *Ctx, tok []byte) {
	if len(tok) != f.TokenBytes {
		panic(fmt.Sprintf("kpn: fifo %q: write of %d bytes, token is %d", f.Name, len(tok), f.TokenBytes))
	}
	if f.closed {
		panic(fmt.Sprintf("kpn: fifo %q: write after close", f.Name))
	}
	c.muteRecord()
	if f.Full() {
		c.WaitFor(func() bool { return !f.Full() }, f)
	}
	slot := (f.tail % uint64(f.Cap)) * uint64(f.TokenBytes)
	c.StoreBytes(f.Region, slot, tok)
	c.unmuteRecord()
	f.tail++
	f.produced++
	if d := f.Len(); d > f.maxDepth {
		f.maxDepth = d
	}
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordFIFOWrite(f)
	}
}

// Read blocks until a token is available, copies it into tok and returns
// true; it returns false when the FIFO is closed and drained (EOF).
// Like Write, capture records it as one event (carrying the EOF flag,
// which replay verifies) with the internal LoadBytes suppressed.
func (f *FIFO) Read(c *Ctx, tok []byte) bool {
	if len(tok) != f.TokenBytes {
		panic(fmt.Sprintf("kpn: fifo %q: read of %d bytes, token is %d", f.Name, len(tok), f.TokenBytes))
	}
	c.muteRecord()
	if f.Empty() && !f.closed {
		c.WaitFor(func() bool { return !f.Empty() || f.closed }, f)
	}
	ok := !f.Empty()
	if ok {
		slot := (f.head % uint64(f.Cap)) * uint64(f.TokenBytes)
		c.LoadBytes(f.Region, slot, tok)
		f.head++
		f.consumed++
	}
	c.unmuteRecord()
	if c.rec != nil && c.recMute == 0 {
		c.rec.RecordFIFORead(f, ok)
	}
	return ok
}

// Write32 writes one 4-byte token holding v (for FIFOs with TokenBytes 4).
func (f *FIFO) Write32(c *Ctx, v uint32) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	f.Write(c, b[:])
}

// Read32 reads one 4-byte token; ok is false at EOF.
func (f *FIFO) Read32(c *Ctx) (v uint32, ok bool) {
	var b [4]byte
	if !f.Read(c, b[:]) {
		return 0, false
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

// Frame is a YAPI frame buffer: a 2-D pixel array in its own region,
// produced completely by one task before being consumed by another (the
// paper's observation that frame access is intrinsically sequential, so an
// exclusive partition preserves compositionality).
type Frame struct {
	Name   string
	Region *mem.Region
	Width  int
	Height int
	Pixel  int // bytes per pixel
}

// NewFrame allocates a frame buffer region (kind KindFrame).
func NewFrame(as *mem.AddressSpace, name string, w, h, pixelBytes int) (*Frame, error) {
	if w <= 0 || h <= 0 || pixelBytes <= 0 {
		return nil, fmt.Errorf("kpn: frame %q: %dx%dx%d invalid", name, w, h, pixelBytes)
	}
	r, err := as.Alloc(name, mem.KindFrame, "", uint64(w*h*pixelBytes))
	if err != nil {
		return nil, err
	}
	return &Frame{Name: name, Region: r, Width: w, Height: h, Pixel: pixelBytes}, nil
}

// MustNewFrame is NewFrame that panics on error.
func MustNewFrame(as *mem.AddressSpace, name string, w, h, pixelBytes int) *Frame {
	f, err := NewFrame(as, name, w, h, pixelBytes)
	if err != nil {
		panic(err)
	}
	return f
}

func (fr *Frame) offset(x, y int) uint64 {
	if x < 0 || y < 0 || x >= fr.Width || y >= fr.Height {
		panic(fmt.Sprintf("kpn: frame %q: pixel (%d,%d) outside %dx%d", fr.Name, x, y, fr.Width, fr.Height))
	}
	return uint64((y*fr.Width + x) * fr.Pixel)
}

// Load8 reads the byte at pixel (x,y) (for 1-byte-per-pixel frames).
func (fr *Frame) Load8(c *Ctx, x, y int) byte {
	return c.Load8(fr.Region, fr.offset(x, y))
}

// Store8 writes the byte at pixel (x,y).
func (fr *Frame) Store8(c *Ctx, x, y int, v byte) {
	c.Store8(fr.Region, fr.offset(x, y), v)
}

// Load32 reads the 32-bit pixel at (x,y) (for 4-byte-per-pixel frames).
func (fr *Frame) Load32(c *Ctx, x, y int) uint32 {
	return c.Load32(fr.Region, fr.offset(x, y))
}

// Store32 writes the 32-bit pixel at (x,y).
func (fr *Frame) Store32(c *Ctx, x, y int, v uint32) {
	c.Store32(fr.Region, fr.offset(x, y), v)
}

// LoadRow copies a whole pixel row into dst (len = Width*Pixel bytes).
func (fr *Frame) LoadRow(c *Ctx, y int, dst []byte) {
	c.LoadBytes(fr.Region, fr.offset(0, y), dst)
}

// StoreRow writes a whole pixel row from src.
func (fr *Frame) StoreRow(c *Ctx, y int, src []byte) {
	c.StoreBytes(fr.Region, fr.offset(0, y), src)
}
