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

// BenchmarkCaptureSmall times CaptureApp on each small-scale
// application: one functional run of a freshly built app under
// kpn.NoMemory, recording and assembling its container. Building the
// app is left out of the timing.
//
//	go test -run '^$' -bench BenchmarkCaptureSmall -count 3 ./internal/tracefile/
func BenchmarkCaptureSmall(b *testing.B) {
	for _, name := range []string{"2jpeg+canny", "jpeg1-only", "mpeg2"} {
		b.Run(name, func(b *testing.B) {
			w, err := workloads.Build(name, workloads.BuildConfig{Scale: workloads.Small})
			if err != nil {
				b.Fatal(err)
			}
			meta := Meta{Workload: name, Scale: workloads.Small.String()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				app, err := w.Factory()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := CaptureApp(app, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
