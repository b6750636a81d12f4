package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer of the program, recorded by the
// benchmark around the call. Root spans (Parent 0) belong to the
// benchmark itself ("bench" layer): their time not covered by child
// spans is the unattributed remainder.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Key    string             `json:"key,omitempty"` // grouping key, e.g. "jpegcanny.shared"
	Req    string             `json:"req"`           // request or point the call serves
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the benchmark
// ends. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// do records one span around f. f receives the span's id (the parent of
// nested calls) and may attach counts through set.
func (t *tracer) do(parent int, layer, name, key, req string, f func(id int, set func(string, float64)) error) error {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Key: key, Req: req, Start: t.now()})
	t.mu.Unlock()
	counts := map[string]float64{}
	var cmu sync.Mutex
	err := f(id, func(k string, v float64) {
		cmu.Lock()
		counts[k] += v
		cmu.Unlock()
	})
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	if len(counts) > 0 {
		t.spans[id-1].Counts = counts
	}
	t.mu.Unlock()
	return err
}

// root records a benchmark-level span.
func (t *tracer) root(name, req string, f func(id int) error) error {
	return t.do(0, "bench", name, "", req, func(id int, _ func(string, float64)) error { return f(id) })
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// group is the calls of one span name and key.
type group struct {
	n      int
	total  time.Duration
	durs   []float64          // each call's duration in µs
	counts map[string]float64 // summed over the calls
}

func (g *group) medianUs() float64 {
	if g == nil || g.n == 0 {
		return 0
	}
	return median(g.durs)
}

func (g *group) meanMs() float64 {
	if g == nil || g.n == 0 {
		return 0
	}
	return ms(g.total) / float64(g.n)
}

// meanCount returns a count averaged over the group's calls.
func (g *group) meanCount(k string) float64 {
	if g == nil || g.n == 0 {
		return 0
	}
	return g.counts[k] / float64(g.n)
}

// groups aggregates spans by "name|key".
func groups(spans []span) map[string]*group {
	out := map[string]*group{}
	for i := range spans {
		s := &spans[i]
		g := out[s.Name+"|"+s.Key]
		if g == nil {
			g = &group{counts: map[string]float64{}}
			out[s.Name+"|"+s.Key] = g
		}
		g.n++
		g.total += s.dur()
		g.durs = append(g.durs, us(s.dur()))
		for k, v := range s.Counts {
			g.counts[k] += v
		}
	}
	return out
}

// selfTimes returns each layer's self time in ms: every span's duration
// minus the part of its interval that its child spans cover (children
// may overlap, as the shared run and the optimize leg do). The "bench"
// layer's self time is the unattributed remainder of the root spans.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if open && st <= curE {
				curE = max(curE, en)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = st, en, true
		}
		if open {
			covered += curE - curS
		}
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeSpans writes the spans as one JSON document and returns its path.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+itoa(seed)+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
