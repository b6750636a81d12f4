// Package synth provides the deterministic building blocks shared by the
// workload generators: a seeded PRNG, synthetic test images, the integer
// 8×8 DCT/IDCT pair, zigzag scan order, quantization, and a byte-oriented
// run-length entropy code.
//
// The paper evaluates on real JPEG and MPEG-2 bitstreams that are not
// available; these generators produce deterministic synthetic streams
// with the same structure (DCT blocks, run-length coded coefficients,
// motion-compensated prediction), so the decoder pipelines execute the
// same kinds of work over the same kinds of buffers.
package synth

// Rand is a deterministic xorshift64* PRNG, independent of math/rand so
// streams are stable across Go versions.
type Rand struct{ state uint64 }

// NewRand seeds a generator; seed 0 is mapped to 1.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 1
	}
	return &Rand{state: seed}
}

// Next returns the next 64 random bits.
func (r *Rand) Next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0,n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Image is a grayscale 8-bit image.
type Image struct {
	Width, Height int
	Pix           []byte
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{Width: w, Height: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x,y); out-of-range coordinates clamp to the
// border (convenient for filter windows).
func (im *Image) At(x, y int) byte {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.Width {
		x = im.Width - 1
	}
	if y >= im.Height {
		y = im.Height - 1
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the pixel at (x,y); out-of-range coordinates are ignored.
func (im *Image) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= im.Width || y >= im.Height {
		return
	}
	im.Pix[y*im.Width+x] = v
}

// GenerateImage builds a deterministic synthetic photo-like test pattern:
// smooth gradients plus edges plus seeded noise, so DCT blocks have
// realistic sparse spectra and edge detectors find real edges.
func GenerateImage(w, h int, seed uint64) *Image {
	im := NewImage(w, h)
	rng := NewRand(seed)
	// Random rectangles on a gradient background.
	type rect struct{ x0, y0, x1, y1, v int }
	rects := make([]rect, 12)
	for i := range rects {
		x0, y0 := rng.Intn(w), rng.Intn(h)
		rects[i] = rect{x0, y0, x0 + rng.Intn(w/3+1) + 4, y0 + rng.Intn(h/3+1) + 4, rng.Intn(200) + 30}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 40 + (x*120)/w + (y*60)/h
			for _, rc := range rects {
				if x >= rc.x0 && x < rc.x1 && y >= rc.y0 && y < rc.y1 {
					v = rc.v
				}
			}
			v += int(rng.Next()%25) - 12 // sensor noise and fine texture
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Pix[y*w+x] = byte(v)
		}
	}
	return im
}

// ZigZag is the standard JPEG/MPEG zigzag scan order over an 8×8 block.
var ZigZag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// QuantLuma is a JPEG-flavoured luminance quantization matrix.
var QuantLuma = [64]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// cosTable[k*8+n] = round(cos((2n+1)kπ/16) * 4096), the fixed-point basis
// used by both the forward and inverse transforms.
var cosTable = func() [64]int32 {
	// Values computed from the closed form with integer-only rounding at
	// build time would need math; instead the canonical constants are
	// inlined (12-bit fixed point).
	c := [8]float64{1, 0.980785, 0.923880, 0.831470, 0.707107, 0.555570, 0.382683, 0.195090}
	var t [64]int32
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			// cos((2n+1)kπ/16) expressed via the quarter-wave table.
			idx := (2*n + 1) * k % 32
			sign := int32(1)
			if idx > 16 {
				idx = 32 - idx
			}
			if idx > 8 {
				idx = 16 - idx
				sign = -1
			}
			t[k*8+n] = sign * int32(c[idx%8]*4096+0.5)
			if idx == 8 {
				t[k*8+n] = 0
			}
		}
	}
	return t
}()

// CosTable returns the 12-bit fixed-point DCT basis table; the decoder
// tasks copy it into their simulated heaps so table lookups generate
// memory traffic.
func CosTable() [64]int32 { return cosTable }

// FDCT8 computes the forward 8×8 DCT of a block of centred samples
// (pixel−128), in place, using the naive separable fixed-point transform.
func FDCT8(b *[64]int32) {
	var tmp [64]int32
	for v := 0; v < 8; v++ { // rows
		for u := 0; u < 8; u++ {
			var s int64
			for x := 0; x < 8; x++ {
				s += int64(b[v*8+x]) * int64(cosTable[u*8+x])
			}
			tmp[v*8+u] = int32(s >> 9) // ×8 headroom kept
		}
	}
	for u := 0; u < 8; u++ { // columns
		for v := 0; v < 8; v++ {
			var s int64
			for y := 0; y < 8; y++ {
				s += int64(tmp[y*8+u]) * int64(cosTable[v*8+y])
			}
			// Overall scale: (1/4)·C(u)C(v) in fixed point.
			r := int32(s >> 15)
			if u == 0 {
				r = int32(int64(r) * 2896 >> 12)
			}
			if v == 0 {
				r = int32(int64(r) * 2896 >> 12)
			}
			b[v*8+u] = r / 4
		}
	}
}

// IDCT8 computes the inverse 8×8 DCT in place, the exact integer
// algorithm the decoder tasks execute (so the plain-Go reference decode
// matches the simulated decode bit for bit).
func IDCT8(b *[64]int32) {
	var tmp [64]int32
	for v := 0; v < 8; v++ { // rows: sum over u
		for x := 0; x < 8; x++ {
			var s int64
			for u := 0; u < 8; u++ {
				cu := int64(b[v*8+u])
				if u == 0 {
					cu = cu * 2896 >> 12
				}
				s += cu * int64(cosTable[u*8+x])
			}
			tmp[v*8+x] = int32(s >> 12)
		}
	}
	for x := 0; x < 8; x++ { // columns: sum over v
		for y := 0; y < 8; y++ {
			var s int64
			for v := 0; v < 8; v++ {
				cv := int64(tmp[v*8+x])
				if v == 0 {
					cv = cv * 2896 >> 12
				}
				s += cv * int64(cosTable[v*8+y])
			}
			b[y*8+x] = int32(s >> 14)
		}
	}
}

// Quantize divides by the matrix scaled by quality q (1 = finest).
func Quantize(b *[64]int32, q int32) {
	for i := range b {
		d := QuantLuma[i] * q
		v := b[i]
		if v >= 0 {
			b[i] = (v + d/2) / d
		} else {
			b[i] = -((-v + d/2) / d)
		}
	}
}

// Dequantize multiplies by the matrix scaled by q.
func Dequantize(b *[64]int32, q int32) {
	for i := range b {
		b[i] *= QuantLuma[i] * q
	}
}

// Clamp8 narrows a centred sample back to an 8-bit pixel.
func Clamp8(v int32) byte {
	v += 128
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
