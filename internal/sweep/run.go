package sweep

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"repro/internal/report"
	"repro/internal/scenario"
)

// Envelope kinds of the sweep surface.
const (
	// PointKind wraps one PointResult on the NDJSON stream.
	PointKind = "sweep.point"
	// ResultKind wraps the final aggregate document.
	ResultKind = "sweep.result"
)

// Metrics are the per-point outcome numbers the aggregation works on.
// They come from the point's primary measured run — the partitioned run
// when the policy produced one, else the shared run; profile/optimize
// policies yield no metrics. L2Bytes is the point's L2 capacity, the
// "area" coordinate of the paper's size/performance trade-off.
type Metrics struct {
	Makespan   uint64  `json:"makespan"`
	Misses     uint64  `json:"misses"`
	Energy     float64 `json:"energy"`
	L2MissRate float64 `json:"l2_miss_rate"`
	CPIMean    float64 `json:"cpi_mean"`
	L2Bytes    int     `json:"l2_bytes"`
	// MissRatio is shared/partitioned misses when both runs exist.
	MissRatio float64 `json:"miss_ratio,omitempty"`
}

// metricNames lists the metrics addressable by Pareto pairs and the
// extremes tables.
var metricNames = []string{"makespan", "misses", "energy", "l2_miss_rate", "cpi", "l2_bytes"}

// MetricNames lists the addressable metric names.
func MetricNames() []string { return append([]string(nil), metricNames...) }

func validMetric(name string) bool {
	for _, m := range metricNames {
		if m == name {
			return true
		}
	}
	return false
}

// Get extracts a metric by name (see MetricNames); unknown names read
// as 0 — Pareto pairs are validated against the registry long before
// any lookup.
func (m *Metrics) Get(name string) float64 { return m.get(name) }

// get extracts a metric by name.
func (m *Metrics) get(name string) float64 {
	switch name {
	case "makespan":
		return float64(m.Makespan)
	case "misses":
		return float64(m.Misses)
	case "energy":
		return m.Energy
	case "l2_miss_rate":
		return m.L2MissRate
	case "cpi":
		return m.CPIMean
	case "l2_bytes":
		return float64(m.L2Bytes)
	}
	return 0
}

// Summarize turns a finished point into its summary. The point is
// canceled when it never started (r is nil) or when err, its run error,
// says the context expired before its remaining stages; failed when r
// carries any other error; else measured, with metrics from its
// primary run (none for profile/optimize policies). l2Bytes is the
// capacity of the point's partition level when the caller already has
// it (a sweep plan keeps it per point); 0 derives it from r's spec.
// Sweeps and explorations summarize their points through this one
// function, so their fronts are computed from identical numbers.
func Summarize(index int, coords []Coord, r *scenario.Result, err error, l2Bytes int) PointSummary {
	return summarize(index, coords, r, err, l2Bytes, new(Metrics))
}

// summarize is Summarize writing the point's metrics, when it has any,
// into m, so that a caller summarizing many points can hand out the
// slots of one slab.
func summarize(index int, coords []Coord, r *scenario.Result, err error, l2Bytes int, m *Metrics) PointSummary {
	ps := PointSummary{Index: index, Coords: coords}
	switch {
	case r == nil:
		ps.Canceled = true
	case r.Error != "":
		ps.Key, ps.Error = r.Key, r.Error
		ps.Canceled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	default:
		ps.Key = r.Key
		if l2Bytes == 0 {
			l2Bytes = l2BytesOf(r.Scenario)
		}
		if m.set(r, l2Bytes) {
			ps.Metrics = m
		}
	}
	return ps
}

// set fills m from a point's scenario result and the L2 capacity of its
// spec, and reports false, leaving m alone, when the result carries no
// measured run.
func (m *Metrics) set(r *scenario.Result, l2Bytes int) bool {
	run := r.Partitioned
	if run == nil {
		run = r.Shared
	}
	if run == nil {
		return false
	}
	*m = Metrics{
		Makespan:   run.Makespan,
		Misses:     run.TotalMisses,
		Energy:     run.Energy,
		L2MissRate: run.L2MissRate,
		CPIMean:    run.CPIMean,
		L2Bytes:    l2Bytes,
		MissRatio:  r.MissRatio(),
	}
	return true
}

// l2BytesOf is the capacity of a spec's partitioned level (0 when its
// platform does not assemble).
func l2BytesOf(s *scenario.Scenario) int {
	if s.Platform == nil {
		return 0
	}
	pc, err := s.Platform.Config()
	if err != nil {
		return 0
	}
	geom := pc.PartitionGeom()
	return geom.SizeBytes()
}

// PointResult is one completed point: its coordinates plus the full
// scenario result document. The serve mode streams these as
// "sweep.point" envelopes before the final aggregate.
type PointResult struct {
	Index  int              `json:"index"`
	Coords []Coord          `json:"coords"`
	Result *scenario.Result `json:"result"`
}

// Envelope wraps the point for the NDJSON stream.
func (p PointResult) Envelope() report.Envelope {
	return report.NewEnvelope(PointKind, p)
}

// PointSummary is the compact per-point record embedded in the
// aggregate (the full result documents are streamed separately).
type PointSummary struct {
	Index    int      `json:"index"`
	Coords   []Coord  `json:"coords"`
	Key      string   `json:"key,omitempty"`
	Error    string   `json:"error,omitempty"`
	Canceled bool     `json:"canceled,omitempty"`
	Metrics  *Metrics `json:"metrics,omitempty"`
}

// SensitivityRow aggregates all points sharing one value of an axis.
type SensitivityRow struct {
	Value        string  `json:"value"`
	N            int     `json:"n"`
	MeanMakespan float64 `json:"mean_makespan"`
	MeanMisses   float64 `json:"mean_misses"`
	MeanEnergy   float64 `json:"mean_energy"`
}

// AxisSensitivity is one axis's sensitivity table: how the mean
// outcomes move as the axis's value changes, marginalized over every
// other axis.
type AxisSensitivity struct {
	Axis string           `json:"axis"`
	Rows []SensitivityRow `json:"rows"`
}

// MetricExtremes records the best (minimum) and worst (maximum) point
// of one metric.
type MetricExtremes struct {
	Metric     string  `json:"metric"`
	BestIndex  int     `json:"best_index"`
	BestValue  float64 `json:"best_value"`
	WorstIndex int     `json:"worst_index"`
	WorstValue float64 `json:"worst_value"`
}

// ParetoFront is the set of points not dominated under minimization of
// the (X, Y) metric pair, as indices into Points sorted by ascending X.
type ParetoFront struct {
	X       string `json:"x"`
	Y       string `json:"y"`
	Indices []int  `json:"indices"`
}

// Result is the versioned aggregate document of one sweep.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name,omitempty"`
	// TotalPoints is the full cross-product size; Executed counts the
	// points actually submitted (TotalPoints - Truncated).
	TotalPoints int            `json:"total_points"`
	Executed    int            `json:"executed"`
	Truncated   int            `json:"truncated,omitempty"`
	Failed      int            `json:"failed,omitempty"`
	Canceled    int            `json:"canceled,omitempty"`
	Points      []PointSummary `json:"points"`

	Sensitivity []AxisSensitivity `json:"sensitivity,omitempty"`
	Extremes    []MetricExtremes  `json:"extremes,omitempty"`
	Pareto      []ParetoFront     `json:"pareto,omitempty"`

	// Stats is the runner-counter delta observed over this sweep's
	// execution: the memo-amplification evidence (ProfileRuns is the
	// number of distinct profile stages actually simulated). On a
	// dedicated runner (the CLI) the delta is exactly this sweep's work;
	// on the serve mode's shared runner, stage work of requests running
	// concurrently with the sweep lands in the same window.
	Stats scenario.Stats `json:"runner_stats"`
}

// Envelope wraps the aggregate for the machine-readable surface.
func (r *Result) Envelope() report.Envelope {
	return report.NewEnvelope(ResultKind, r)
}

// DefaultPareto is the front pair set used when a spec names none: the
// paper's size/performance trade-off and the energy criterion.
func DefaultPareto() []ParetoPair { return slices.Clone(defaultPareto) }

// defaultPareto is DefaultPareto's pair set, which ExecutePrepared reads
// without copying it.
var defaultPareto = []ParetoPair{{X: "l2_bytes", Y: "makespan"}, {X: "energy", Y: "makespan"}}

// Execute expands the sweep and runs every point through rn, sharing
// the runner's content-addressed stage memo across the whole batch.
// observe (optional) is called once per executed point, in index order,
// as soon as the point and all its predecessors are done — the serve
// mode streams from exactly this callback. A canceled ctx skips points
// not yet started (they are marked Canceled and not observed) and fails
// the pending stages of points mid-pipeline (also counted Canceled);
// stages already simulating finish into the shared memo.
//
// Execute is Prepare then ExecutePrepared, so a warm sweep costs one
// hash of the spec, one plan lookup and one result lookup per point.
func Execute(ctx context.Context, rn *scenario.Runner, sw Sweep, observe func(PointResult)) (*Result, error) {
	p, err := Prepare(rn, sw)
	if err != nil {
		return nil, err
	}
	return ExecutePrepared(ctx, rn, p, observe)
}

// ExecutePrepared is Execute over a plan from Prepare — the serve mode
// prepares pre-flight, so every expansion error is a proper 400 before
// the response header commits. The only error it returns is ctx's.
func ExecutePrepared(ctx context.Context, rn *scenario.Runner, p *Plan, observe func(PointResult)) (*Result, error) {
	before := rn.Stats()

	walk := func(i int, r *scenario.Result) bool {
		if observe != nil {
			observe(PointResult{Index: i, Coords: p.coords[i], Result: r})
		}
		return true
	}
	results, errs, done := rn.RunPreparedStream(ctx, p.prepared, p.errs, walk)
	<-done

	n := p.Len()
	res := &Result{
		SchemaVersion: report.SchemaVersion,
		Name:          p.name,
		TotalPoints:   p.total,
		Executed:      n,
		Truncated:     p.total - n,
		Points:        make([]PointSummary, n),
	}
	res.Stats = rn.Stats().Delta(before)
	metrics := make([]Metrics, n)
	for i, coords := range p.coords {
		ps := summarize(i, coords, results[i], errs[i], p.l2Bytes[i], &metrics[i])
		switch {
		case ps.Canceled:
			res.Canceled++
		case ps.Error != "":
			res.Failed++
		}
		res.Points[i] = ps
	}
	res.Sensitivity = sensitivity(p.labels, res.Points)
	res.Extremes = extremes(res.Points)
	pairs := p.pareto
	if len(pairs) == 0 {
		pairs = defaultPareto
	}
	res.Pareto = make([]ParetoFront, len(pairs))
	cs := make([]candidate, 0, n)
	for i, pr := range pairs {
		res.Pareto[i] = paretoFront(res.Points, pr, cs)
	}
	return res, ctx.Err()
}

// ComputeSensitivity builds the per-axis marginal tables over an
// arbitrary point-summary set — the aggregation Execute applies to a
// full expansion, exposed so the exploration layer can marginalize over
// exactly the points it visited.
func ComputeSensitivity(sw Sweep, points []PointSummary) []AxisSensitivity {
	labels := make([]string, len(sw.Axes))
	for i, ax := range sw.Axes {
		labels[i] = ax.label()
	}
	return sensitivity(labels, points)
}

// ComputeParetoFront computes the non-dominated set of a point-summary
// set under minimization of the metric pair (see ParetoFront). Indices
// refer to the summaries' own Index fields, so fronts over explored
// subsets and over full expansions are directly comparable.
func ComputeParetoFront(points []PointSummary, pair ParetoPair) ParetoFront {
	return paretoFront(points, pair, make([]candidate, 0, len(points)))
}

// sensitivity builds one marginal table per axis label over the executed
// points (two passes per axis — never over the axis's declared value
// domain, which a range axis can make astronomically larger than the
// capped point set). The first pass numbers the axis's values in
// first-appearance order, which for the dimension-major expansion is
// exactly the axis's value order, so the second can accumulate into
// rows allocated at their final length.
func sensitivity(labels []string, points []PointSummary) []AxisSensitivity {
	out := make([]AxisSensitivity, len(labels))
	index := map[string]int{} // value → its row, for the current axis
	for i, label := range labels {
		clear(index)
		for _, p := range points {
			if v, ok := coordValue(p.Coords, label); ok {
				if _, seen := index[v]; !seen {
					index[v] = len(index)
				}
			}
		}
		rows := make([]SensitivityRow, len(index))
		for _, p := range points {
			v, ok := coordValue(p.Coords, label)
			if !ok {
				continue
			}
			r := &rows[index[v]]
			r.Value = v
			if p.Metrics == nil {
				continue
			}
			r.N++
			r.MeanMakespan += float64(p.Metrics.Makespan)
			r.MeanMisses += float64(p.Metrics.Misses)
			r.MeanEnergy += p.Metrics.Energy
		}
		for j := range rows {
			if r := &rows[j]; r.N > 0 {
				r.MeanMakespan /= float64(r.N)
				r.MeanMisses /= float64(r.N)
				r.MeanEnergy /= float64(r.N)
			}
		}
		out[i] = AxisSensitivity{Axis: label, Rows: rows}
	}
	return out
}

func coordValue(coords []Coord, axis string) (string, bool) {
	for _, c := range coords {
		if c.Axis == axis {
			return c.Value, true
		}
	}
	return "", false
}

// extremes finds the best/worst point per headline metric.
func extremes(points []PointSummary) []MetricExtremes {
	headline := []string{"makespan", "misses", "energy"}
	out := make([]MetricExtremes, 0, len(headline))
	for _, m := range headline {
		e := MetricExtremes{Metric: m, BestIndex: -1, WorstIndex: -1}
		for _, p := range points {
			if p.Metrics == nil {
				continue
			}
			v := p.Metrics.get(m)
			if e.BestIndex < 0 || v < e.BestValue {
				e.BestIndex, e.BestValue = p.Index, v
			}
			if e.WorstIndex < 0 || v > e.WorstValue {
				e.WorstIndex, e.WorstValue = p.Index, v
			}
		}
		if e.BestIndex >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// candidate is a measured point's coordinates under a Pareto pair.
type candidate struct {
	idx  int
	x, y float64
}

// paretoFront computes the non-dominated set under minimization of the
// metric pair, stably ordered by ascending (x, y, index). It collects
// the candidates in cs's backing array, so a caller computing several
// fronts over the same points can pass one buffer of len(points)
// capacity to them all.
func paretoFront(points []PointSummary, pair ParetoPair, cs []candidate) ParetoFront {
	front := ParetoFront{X: pair.X, Y: pair.Y}
	cs = cs[:0]
	for _, p := range points {
		if p.Metrics == nil {
			continue
		}
		cs = append(cs, candidate{idx: p.Index, x: p.Metrics.get(pair.X), y: p.Metrics.get(pair.Y)})
	}
	slices.SortFunc(cs, func(a, b candidate) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		if c := cmp.Compare(a.y, b.y); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// Walk in (x, y) order, filtering cs in place: a point joins the
	// front when it strictly improves y on the last admitted point, or
	// exactly ties it on both coordinates (neither dominates the other,
	// e.g. two solvers landing on the same allocation).
	kept := cs[:0]
	for _, c := range cs {
		if n := len(kept); n == 0 || c.y < kept[n-1].y || (c.y == kept[n-1].y && c.x == kept[n-1].x) {
			kept = append(kept, c)
		}
	}
	if len(kept) > 0 { // an empty front keeps nil indices
		front.Indices = make([]int, len(kept))
		for i, c := range kept {
			front.Indices[i] = c.idx
		}
	}
	return front
}
