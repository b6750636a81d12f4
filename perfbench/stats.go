package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between the closest ranks, or NaN for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// p90Supported reports whether a sample of n values has at least ten
// values above its 90th percentile, the least that makes the tail
// percentile meaningful.
func p90Supported(n int) bool { return n >= 100 }

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }
func sec(d time.Duration) float64 { return d.Seconds() }

// series is one named sample of the human-readable report.
type series struct {
	name string
	unit string
	vals []float64
}

// samples collects named series in first-use order.
type samples struct {
	order []string
	byKey map[string]*series
}

func newSamples() *samples { return &samples{byKey: map[string]*series{}} }

func (s *samples) add(name, unit string, v ...float64) {
	sr := s.byKey[name]
	if sr == nil {
		sr = &series{name: name, unit: unit}
		s.byKey[name] = sr
		s.order = append(s.order, name)
	}
	sr.vals = append(sr.vals, v...)
}

func (s *samples) merge(o *samples) {
	for _, n := range o.order {
		sr := o.byKey[n]
		s.add(sr.name, sr.unit, sr.vals...)
	}
}
