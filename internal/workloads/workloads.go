// Package workloads assembles the two evaluation applications of the
// paper (section 5): (1) two JPEG decoders working on different picture
// formats plus one line-based Canny edge detector — 15 tasks — and (2) a
// parallel MPEG-2 video decoder — 13 tasks. Both come in a paper-scale
// variant for the experiments and a small variant for fast tests.
package workloads

import (
	"fmt"

	"repro/internal/apps/canny"
	"repro/internal/apps/jpeg"
	"repro/internal/apps/mpeg2"
	"repro/internal/apps/sections"
	"repro/internal/core"
)

// Scale selects workload size.
type Scale uint8

// Workload scales.
const (
	// Small keeps unit tests fast.
	Small Scale = iota
	// Paper is the experiment scale: picture sizes large enough that the
	// applications' combined working set exceeds the 512 KB L2, as the
	// real video workloads of the paper did.
	Paper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Small {
		return "small"
	}
	return "paper"
}

// ParseScale resolves the spelled-out scale of a scenario spec or flag.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "paper", "":
		return Paper, nil
	}
	return 0, fmt.Errorf("workloads: unknown scale %q (want small or paper)", s)
}

// JPEGCannyHandles exposes the pipelines for functional verification.
type JPEGCannyHandles struct {
	JPEG1 *jpeg.Pipeline
	JPEG2 *jpeg.Pipeline
	Canny *canny.Pipeline
}

// JPEGCanny returns the first application as a reproducible workload.
// If handles is non-nil, it receives the pipeline handles of each built
// instance (overwritten on every Factory call). Concurrent builds race
// on handles, so a caller that builds concurrently (core.Profile with
// more than one run and worker) must pass nil.
func JPEGCanny(scale Scale, handles *JPEGCannyHandles) core.Workload {
	return jpegCanny(scale, 0, handles)
}

// jpegCanny builds application 1 with the input seeds offset by seed
// (seed 0 is the canonical paper workload).
func jpegCanny(scale Scale, seed uint64, handles *JPEGCannyHandles) core.Workload {
	return core.Workload{
		Name: "2jpeg+canny",
		Factory: func() (*core.App, error) {
			b := core.NewBuilder("2jpeg+canny")
			b.Sections(sections.DataSize, sections.BSSSize)

			cfg1 := jpeg.Config{Suffix: "1", Width: 512, Height: 384, Frames: 2,
				Quality: 2, Seed: 101 + seed, CPUs: [4]int{0, 1, 2, 3}}
			cfg2 := jpeg.Config{Suffix: "2", Width: 384, Height: 256, Frames: 3,
				Quality: 3, Seed: 202 + seed, CPUs: [4]int{1, 2, 3, 0}}
			ccfg := canny.Config{Width: 512, Height: 384, Frames: 2, Threshold: 60,
				Seed: 303 + seed, CPUs: [7]int{0, 1, 2, 3, 0, 1, 2}}
			if scale == Small {
				cfg1.Width, cfg1.Height = 96, 64
				cfg2.Width, cfg2.Height = 64, 48
				ccfg.Width, ccfg.Height = 96, 64
			}

			p1, err := jpeg.Build(b, cfg1)
			if err != nil {
				return nil, err
			}
			p2, err := jpeg.Build(b, cfg2)
			if err != nil {
				return nil, err
			}
			pc, err := canny.Build(b, ccfg)
			if err != nil {
				return nil, err
			}
			if handles != nil {
				handles.JPEG1, handles.JPEG2, handles.Canny = p1, p2, pc
			}
			sections.PreloadData(b.ApplData())
			return b.Build()
		},
	}
}

// MPEG2 returns the second application as a reproducible workload.
// If handle is non-nil, it receives the pipeline of each built instance
// (overwritten on every Factory call). Concurrent builds race on
// handle, so a caller that builds concurrently (core.Profile with more
// than one run and worker) must pass nil.
func MPEG2(scale Scale, handle **mpeg2.Pipeline) core.Workload {
	return mpeg2Workload(scale, 0, handle)
}

// mpeg2Workload builds application 2 with the input seed offset by seed.
func mpeg2Workload(scale Scale, seed uint64, handle **mpeg2.Pipeline) core.Workload {
	return core.Workload{
		Name: "mpeg2",
		Factory: func() (*core.App, error) {
			b := core.NewBuilder("mpeg2")
			b.Sections(sections.DataSize, sections.BSSSize)
			cfg := mpeg2.Config{Width: 256, Height: 192, Pictures: 10, QScale: 2,
				Seed: 404 + seed, CPUs: [13]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1}}
			if scale == Small {
				cfg.Width, cfg.Height, cfg.Pictures = 64, 48, 2
			}
			p, err := mpeg2.Build(b, cfg)
			if err != nil {
				return nil, err
			}
			if handle != nil {
				*handle = p
			}
			sections.PreloadData(b.ApplData())
			return b.Build()
		},
	}
}
