package tracefile

import (
	"testing"

	"repro/internal/workloads"
)

// BenchmarkValidateJpegCanny times the small 2×JPEG + Canny trace
// (about 683K events): "validate" is the inline stream validator alone,
// "walker" its walker-based oracle over the same streams (the validator
// it replaced), and "decode" the whole Decode, checksum and header
// included.
//
//	go test -run '^$' -bench BenchmarkValidateJpegCanny -count 3 ./internal/tracefile/
func BenchmarkValidateJpegCanny(b *testing.B) {
	w, err := workloads.Build("2jpeg+canny", workloads.BuildConfig{Scale: workloads.Small})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Capture(w, Meta{Workload: "2jpeg+canny", Scale: "small"})
	if err != nil {
		b.Fatal(err)
	}
	data := tr.Bytes()
	b.Run("validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tr.validateStreams(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("walker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := walkStreams(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
