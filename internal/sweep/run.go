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
func (m *Metrics) Get(name string) float64 { return metric(name)(m) }

// metric returns the accessor of a named metric, so that a caller
// reading one metric of many points resolves the name once.
func metric(name string) func(*Metrics) float64 {
	switch name {
	case "makespan":
		return func(m *Metrics) float64 { return float64(m.Makespan) }
	case "misses":
		return func(m *Metrics) float64 { return float64(m.Misses) }
	case "energy":
		return func(m *Metrics) float64 { return m.Energy }
	case "l2_miss_rate":
		return func(m *Metrics) float64 { return m.L2MissRate }
	case "cpi":
		return func(m *Metrics) float64 { return m.CPIMean }
	case "l2_bytes":
		return func(m *Metrics) float64 { return float64(m.L2Bytes) }
	}
	return func(*Metrics) float64 { return 0 }
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
	res.Sensitivity = p.axes.tables(res.Points)
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
	ar := numberAxes(sw, len(points), func(i int) []Coord { return points[i].Coords })
	return ar.tables(points)
}

// ComputeParetoFront computes the non-dominated set of a point-summary
// set under minimization of the metric pair (see ParetoFront). Indices
// refer to the summaries' own Index fields, so fronts over explored
// subsets and over full expansions are directly comparable.
func ComputeParetoFront(points []PointSummary, pair ParetoPair) ParetoFront {
	return paretoFront(points, pair, make([]candidate, 0, len(points)))
}

// axisRows numbers a point set's coordinates for the sensitivity
// tables: each axis's values in first-appearance order, and every
// point's row in each axis's table. It depends on the coordinates
// alone, so a plan numbers its points once and each aggregate of them
// is one pass of adds.
type axisRows struct {
	labels []string   // the axis labels, one table each
	values [][]string // per axis, its values in first-appearance order
	// rows is point-major: rows[i*len(labels)+a] is point i's row in
	// axis a's table, or -1 when the point has no coordinate on it.
	rows []int32
}

// numberAxes numbers the coordinates of n points on the sweep's axes,
// coords(i) being point i's. It walks the points, never an axis's
// declared value domain, which a range axis can make astronomically
// larger than the capped point set. First-appearance order is, for the
// dimension-major expansion, exactly each axis's value order.
func numberAxes(sw Sweep, n int, coords func(int) []Coord) axisRows {
	na := len(sw.Axes)
	ar := axisRows{labels: make([]string, na), values: make([][]string, na), rows: make([]int32, n*na)}
	index := map[string]int32{} // value → its row, for the current axis
	for a, ax := range sw.Axes {
		label := ax.label()
		ar.labels[a] = label
		clear(index)
		for i := range n {
			row := int32(-1)
			if v, ok := coordValue(coords(i), label); ok {
				var seen bool
				if row, seen = index[v]; !seen {
					row = int32(len(ar.values[a]))
					index[v] = row
					ar.values[a] = append(ar.values[a], v)
				}
			}
			ar.rows[i*na+a] = row
		}
	}
	return ar
}

// tables accumulates one marginal table per axis over points, the
// point set ar numbered, in the same order: every row lists its value,
// and a measured point adds its metrics to its row of each axis. The
// rows of all axes share one slab.
func (ar *axisRows) tables(points []PointSummary) []AxisSensitivity {
	na := len(ar.labels)
	total := 0
	for _, vs := range ar.values {
		total += len(vs)
	}
	slab := make([]SensitivityRow, total)
	out := make([]AxisSensitivity, na)
	for a, vs := range ar.values {
		rows := slab[:len(vs):len(vs)]
		slab = slab[len(vs):]
		for j, v := range vs {
			rows[j].Value = v
		}
		out[a] = AxisSensitivity{Axis: ar.labels[a], Rows: rows}
	}
	for i, p := range points {
		m := p.Metrics
		if m == nil {
			continue
		}
		for a, row := range ar.rows[i*na : (i+1)*na] {
			if row < 0 {
				continue
			}
			r := &out[a].Rows[row]
			r.N++
			r.MeanMakespan += float64(m.Makespan)
			r.MeanMisses += float64(m.Misses)
			r.MeanEnergy += m.Energy
		}
	}
	for _, t := range out {
		for j := range t.Rows {
			if r := &t.Rows[j]; r.N > 0 {
				r.MeanMakespan /= float64(r.N)
				r.MeanMisses /= float64(r.N)
				r.MeanEnergy /= float64(r.N)
			}
		}
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
	headline := [...]string{"makespan", "misses", "energy"}
	out := make([]MetricExtremes, 0, len(headline))
	for _, name := range headline {
		get := metric(name)
		e := MetricExtremes{Metric: name, BestIndex: -1, WorstIndex: -1}
		for _, p := range points {
			if p.Metrics == nil {
				continue
			}
			v := get(p.Metrics)
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
	getX, getY := metric(pair.X), metric(pair.Y)
	cs = cs[:0]
	for _, p := range points {
		if p.Metrics == nil {
			continue
		}
		cs = append(cs, candidate{idx: p.Index, x: getX(p.Metrics), y: getY(p.Metrics)})
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
