// Package sweep is the declarative parameter-exploration layer on top
// of the scenario API: a Sweep is a JSON-(de)serializable spec that
// expands one base Scenario over named axes — cache geometry, CPU
// count, workload, scale, seed ranges, solver, partition policy,
// engines, migration — into a deterministic cross-product of scenario
// points (with optional axis zips and a point cap), executes the batch
// through the memoizing scenario.Runner (points that only vary
// execution-side fields share their profile stages, so an N-point
// geometry/policy grid simulates far less than N pipelines), and
// aggregates the outcomes into a versioned Result: per-axis sensitivity
// tables, best/worst points per metric, and Pareto fronts such as L2
// area vs. makespan. The expanded and prepared points of a sweep are a
// Plan, which the runner's memo keeps in memory under a hash of the
// sweep (Prepare), so a warm sweep costs one hash, one plan lookup and
// one result lookup per point.
//
// Sweeps are data, exactly like scenarios: the CLI runs them from JSON
// files (`compmem sweep -spec file.json`), the serve mode exposes them
// at POST /v1/sweep, and the built-in "paper-grid" sweep reproduces the
// paper's candidate-size exploration as one command.
package sweep

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// SpecVersion is the current sweep spec version.
const SpecVersion = 1

// DefaultMaxPoints bounds an expansion that sets no explicit cap. A
// cross-product larger than this is almost always a spec mistake; the
// expansion fails with an error telling the author to set max_points
// (which truncates deterministically and records how much was dropped —
// never silently).
const DefaultMaxPoints = 4096

// Spec is the wire form of a sweep. Base is a scenario spec object and
// may itself name a built-in scenario through its "base" field; it is
// resolved by Parse. Unknown fields anywhere in the document are an
// error (scenario.DecodeStrict).
type Spec struct {
	SpecVersion int             `json:"spec_version,omitempty"`
	Name        string          `json:"name,omitempty"`
	Base        json.RawMessage `json:"base,omitempty"`
	Axes        []Axis          `json:"axes"`
	// MaxPoints caps the expansion: the first MaxPoints points of the
	// cross-product run, and the aggregate records the truncation. 0
	// means uncapped, in which case an expansion beyond DefaultMaxPoints
	// is an error.
	MaxPoints int `json:"max_points,omitempty"`
	// Pareto selects the Pareto fronts to compute; empty means the
	// default fronts (l2_bytes/makespan and energy/makespan).
	Pareto []ParetoPair `json:"pareto,omitempty"`
}

// Axis is one swept dimension: a scenario field and the values it takes.
// Axes sharing a non-empty Zip group advance in lockstep (they must have
// equal lengths) and together form one dimension of the cross-product.
type Axis struct {
	// Name labels the axis in coordinates and sensitivity tables;
	// defaults to Field.
	Name string `json:"name,omitempty"`
	// Field names the swept scenario field; see Fields().
	Field string `json:"field"`
	// Values are the field's values, decoded per the field's type.
	Values []json.RawMessage `json:"values,omitempty"`
	// Range generates integer values From, From+Step, ... (Count of
	// them); integer-valued fields only. Exactly one of Values and Range
	// must be set.
	Range *Range `json:"range,omitempty"`
	// Zip names the axis's zip group; empty means a standalone axis.
	Zip string `json:"zip,omitempty"`
}

// Range generates an arithmetic progression of integer axis values.
type Range struct {
	From  int64 `json:"from"`
	Count int   `json:"count"`
	Step  int64 `json:"step,omitempty"` // default 1
}

// ParetoPair names two point metrics; the front contains the points not
// dominated under minimization of both.
type ParetoPair struct {
	X string `json:"x"`
	Y string `json:"y"`
}

// Sweep is the parsed, base-resolved form ready to expand and execute.
// Construct it via Parse (from JSON) or literally (built-in sweeps),
// then Validate.
type Sweep struct {
	Name      string
	Base      scenario.Scenario
	Axes      []Axis
	MaxPoints int
	Pareto    []ParetoPair
}

// Parse decodes a sweep spec strictly and resolves its base scenario
// (lookupBase resolves the scenario-level "base" name, exactly as in
// scenario.Resolve; it may be nil).
func Parse(raw []byte, lookupBase func(string) (scenario.Scenario, bool)) (Sweep, error) {
	var spec Spec
	if err := scenario.DecodeStrict(raw, &spec); err != nil {
		return Sweep{}, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if spec.SpecVersion != 0 && spec.SpecVersion != SpecVersion {
		return Sweep{}, fmt.Errorf("sweep: unsupported spec_version %d (current %d)", spec.SpecVersion, SpecVersion)
	}
	sw := Sweep{
		Name:      spec.Name,
		Axes:      spec.Axes,
		MaxPoints: spec.MaxPoints,
		Pareto:    spec.Pareto,
	}
	if len(spec.Base) > 0 {
		base, err := scenario.Resolve(spec.Base, lookupBase)
		if err != nil {
			return Sweep{}, fmt.Errorf("sweep: base: %w", err)
		}
		sw.Base = base
	}
	if err := sw.Validate(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// Validate checks the axes against the field registry, the zip-group
// lengths, and the Pareto metric names. Expansion size is checked by
// Expand (it depends on the cap).
func (sw Sweep) Validate() error {
	if len(sw.Axes) == 0 {
		return fmt.Errorf("sweep: no axes (a sweep needs at least one)")
	}
	sweepsWorkload := false
	zipLen := map[string]int{}
	labels := map[string]bool{}
	targetAxis := map[string]string{}
	kbSeen := map[string]bool{} // per hierarchy level
	for i, ax := range sw.Axes {
		if labels[ax.label()] {
			return fmt.Errorf("sweep: duplicate axis %q (give one a distinct name)", ax.label())
		}
		labels[ax.label()] = true
		fd, ok := lookupField(ax.Field)
		if !ok {
			return fmt.Errorf("sweep: axis %d: unknown field %q (sweepable: %v)", i, ax.Field, Fields())
		}
		// Two axes writing the same scenario path would overwrite each
		// other in declaration order, leaving the earlier axis's
		// coordinate labels lying about the simulated spec — this also
		// catches a level's kb vs sets axes (both set the set count) and
		// the legacy platform.l2.* spellings vs platform.hierarchy.l2.*.
		target := fd.target
		if target == "" {
			target = ax.Field
		}
		if prev, clash := targetAxis[target]; clash {
			return fmt.Errorf("sweep: axes %q and %q both set %s", prev, ax.label(), target)
		}
		targetAxis[target] = ax.label()
		// A kb axis derives its level's set count from the associativity
		// and line size in effect when it applies (declaration order), so
		// a later ways/line_size axis on the same level would silently
		// change the capacity a point is labeled with — reject the
		// ordering outright.
		if level, prop, ok := levelProp(ax.Field); ok {
			if kbSeen[level] && (prop == "ways" || prop == "line_size") {
				return fmt.Errorf("sweep: axis %d (%s): list ways/line_size axes before the %s.kb axis (the capacity derives its set count from them)", i, ax.label(), level)
			}
			if prop == "kb" {
				kbSeen[level] = true
			}
		}
		if ax.Field == "workload" {
			sweepsWorkload = true
		}
		n, err := ax.len()
		if err != nil {
			return fmt.Errorf("sweep: axis %d (%s): %w", i, ax.label(), err)
		}
		if ax.Range != nil && !fd.rangeable {
			return fmt.Errorf("sweep: axis %d (%s): field %q takes explicit values, not a range", i, ax.label(), ax.Field)
		}
		// Decode every explicit value now against the base scenario, so a
		// bad value fails the whole sweep before any simulation (and
		// regardless of the point cap). Range axes generate uniform
		// integers: probe only the first — probing all of them would let
		// a single huge count burn unbounded CPU here, before Expand's
		// size checks ever run. Later range values (and interactions with
		// earlier axes, e.g. a ways axis ahead of an l2.kb axis) are
		// re-validated per point at expansion, under the cap.
		probes := n
		if ax.Range != nil {
			probes = 1
		}
		for k := 0; k < probes; k++ {
			probe := sw.Base // apply clones Platform before writing
			if err := ax.apply(&probe, k); err != nil {
				return fmt.Errorf("sweep: axis %d (%s) value %d: %w", i, ax.label(), k, err)
			}
		}
		if ax.Zip != "" {
			if prev, ok := zipLen[ax.Zip]; ok && prev != n {
				return fmt.Errorf("sweep: zip group %q has axes of different lengths (%d vs %d)", ax.Zip, prev, n)
			}
			zipLen[ax.Zip] = n
		}
	}
	if sw.Base.Workload == "" && sw.Base.Base == "" && !sweepsWorkload {
		return fmt.Errorf("sweep: base names no workload and no axis sweeps \"workload\"")
	}
	for _, p := range sw.Pareto {
		for _, m := range []string{p.X, p.Y} {
			if !validMetric(m) {
				return fmt.Errorf("sweep: unknown pareto metric %q (metrics: %v)", m, MetricNames())
			}
		}
	}
	if sw.MaxPoints < 0 {
		return fmt.Errorf("sweep: negative max_points %d", sw.MaxPoints)
	}
	return nil
}

// label returns the axis's display name.
func (ax Axis) label() string {
	if ax.Name != "" {
		return ax.Name
	}
	return ax.Field
}

// len returns the axis's value count.
func (ax Axis) len() (int, error) {
	switch {
	case ax.Range != nil && len(ax.Values) > 0:
		return 0, fmt.Errorf("both values and a range given (want exactly one)")
	case ax.Range != nil:
		if ax.Range.Count <= 0 {
			return 0, fmt.Errorf("range count %d not positive", ax.Range.Count)
		}
		return ax.Range.Count, nil
	case len(ax.Values) > 0:
		return len(ax.Values), nil
	}
	return 0, fmt.Errorf("no values and no range")
}

// value returns the k-th raw value of the axis (ranges materialize to
// decimal JSON numbers).
func (ax Axis) value(k int) json.RawMessage {
	if ax.Range != nil {
		step := ax.Range.Step
		if step == 0 {
			step = 1
		}
		return json.RawMessage(strconv.FormatInt(ax.Range.From+int64(k)*step, 10))
	}
	return ax.Values[k]
}

// valueLabel renders the k-th value for coordinates and tables: strings
// unquoted, everything else as its compact JSON text.
func (ax Axis) valueLabel(k int) string {
	raw := ax.value(k)
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	return string(raw)
}

// apply sets the axis's k-th value on the scenario.
func (ax Axis) apply(s *scenario.Scenario, k int) error {
	fd, ok := lookupField(ax.Field)
	if !ok {
		return fmt.Errorf("unknown field %q", ax.Field)
	}
	return fd.apply(s, ax.value(k))
}

// Coord is one axis coordinate of a point.
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Point is one expanded scenario of the sweep.
type Point struct {
	Index    int
	Coords   []Coord
	Scenario scenario.Scenario
}

// CoordLabel renders a point's coordinates as "axis=value,axis=value":
// its name within the sweep, and its label in every table that lists
// it.
func CoordLabel(coords []Coord) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = c.Axis + "=" + c.Value
	}
	return strings.Join(parts, ",")
}

// dim is one dimension of the cross-product: a standalone axis or a
// whole zip group advancing in lockstep.
type dim struct {
	axes []int
	n    int
}

// dims validates the sweep and groups its axes into cross-product
// dimensions (a zip group is one dimension, ordered by its first
// appearance), returning them with the full product size. Only the
// computability bound applies here — the expansion caps belong to plan,
// so index-addressed consumers (Index/PointAt) can walk spaces far
// beyond the exhaustive-expansion limit.
func (sw Sweep) dims() ([]dim, int, error) {
	if err := sw.Validate(); err != nil {
		return nil, 0, err
	}
	var dims []dim
	zipDim := map[string]int{}
	for i, ax := range sw.Axes {
		n, _ := ax.len()
		if ax.Zip == "" {
			dims = append(dims, dim{axes: []int{i}, n: n})
			continue
		}
		if d, ok := zipDim[ax.Zip]; ok {
			dims[d].axes = append(dims[d].axes, i)
			continue
		}
		zipDim[ax.Zip] = len(dims)
		dims = append(dims, dim{axes: []int{i}, n: n})
	}
	// hardMax bounds the computable product outright (overflow guard and
	// sanity limit — even a capped sweep reports the true product size).
	const hardMax = 1 << 30
	total := 1
	for _, d := range dims {
		if d.n > hardMax/total {
			return nil, 0, fmt.Errorf("sweep: cross-product exceeds %d points", hardMax)
		}
		total *= d.n
	}
	return dims, total, nil
}

// Expand materializes the cross-product (zip groups count as one
// dimension; within a dimension-major, last-dimension-fastest order,
// so the first axis varies slowest). It returns the points actually to
// run — the first MaxPoints of the product when capped — and the full
// product size. The order is a function of the spec alone, so sweep
// results are stable across runs, platforms and worker counts.
func (sw Sweep) Expand() ([]Point, int, error) {
	sp, err := sw.Index()
	if err != nil {
		return nil, 0, err
	}
	if sw.MaxPoints == 0 && sp.total > DefaultMaxPoints {
		return nil, 0, fmt.Errorf("sweep: expansion has %d points (over the %d default cap); set max_points to run a truncated prefix deliberately", sp.total, DefaultMaxPoints)
	}
	limit := sp.total
	if sw.MaxPoints > 0 && limit > sw.MaxPoints {
		limit = sw.MaxPoints
	}
	points := make([]Point, limit)
	for p := 0; p < limit; p++ {
		pt, err := sp.PointAt(p)
		if err != nil {
			return nil, 0, err
		}
		points[p] = pt
	}
	return points, sp.total, nil
}

// Space is the index-addressed view of a sweep's cross-product: points
// are materialized one at a time by PointAt in exactly Expand's
// dimension-major order, without building (or bounding) the whole
// expansion — the adaptive-exploration layer addresses million-point
// spaces through it. The exhaustive-expansion caps (MaxPoints,
// DefaultMaxPoints) deliberately do not apply; only the computability
// bound on the product size does.
type Space struct {
	sw      Sweep
	name    string
	dims    []dim
	axisDim []int
	total   int
}

// Index validates the sweep once and returns its index-addressed space.
func (sw Sweep) Index() (*Space, error) {
	dims, total, err := sw.dims()
	if err != nil {
		return nil, err
	}
	name := sw.Name
	if name == "" {
		name = "sweep"
	}
	// Map each axis to its dimension, so values apply in declaration
	// order (zip grouping affects indexing only, never apply order —
	// platform.l2.kb's derivation depends on what applied before it).
	axisDim := make([]int, len(sw.Axes))
	for d, dm := range dims {
		for _, ai := range dm.axes {
			axisDim[ai] = d
		}
	}
	return &Space{sw: sw, name: name, dims: dims, axisDim: axisDim, total: total}, nil
}

// Total reports the full cross-product size.
func (sp *Space) Total() int { return sp.total }

// DimSizes returns the value count of each cross-product dimension (a
// zip group counts as one dimension), in index order: the shape
// coordinate-wise searches walk.
func (sp *Space) DimSizes() []int {
	sizes := make([]int, len(sp.dims))
	for d, dm := range sp.dims {
		sizes[d] = dm.n
	}
	return sizes
}

// DimOf returns the dimension index of the named axis (its label), or
// -1 when no axis carries that label.
func (sp *Space) DimOf(axis string) int {
	for i, ax := range sp.sw.Axes {
		if ax.label() == axis {
			return sp.axisDim[i]
		}
	}
	return -1
}

// CoordOf decodes a point index into its per-dimension value indices
// (last dimension fastest, exactly Expand's order).
func (sp *Space) CoordOf(p int) []int {
	idx := make([]int, len(sp.dims))
	rem := p
	for d := len(sp.dims) - 1; d >= 0; d-- {
		idx[d] = rem % sp.dims[d].n
		rem /= sp.dims[d].n
	}
	return idx
}

// IndexOf is CoordOf's inverse: the point index at the given
// per-dimension value indices. It returns -1 when any coordinate is out
// of its dimension's range.
func (sp *Space) IndexOf(coord []int) int {
	if len(coord) != len(sp.dims) {
		return -1
	}
	p := 0
	for d, k := range coord {
		if k < 0 || k >= sp.dims[d].n {
			return -1
		}
		p = p*sp.dims[d].n + k
	}
	return p
}

// PointAt materializes the p-th point of the cross-product, identical
// to Expand's points[p] whenever the latter exists.
func (sp *Space) PointAt(p int) (Point, error) {
	if p < 0 || p >= sp.total {
		return Point{}, fmt.Errorf("sweep: point index %d out of range [0, %d)", p, sp.total)
	}
	idx := sp.CoordOf(p)
	s := sp.sw.Base
	s.Base = ""
	coords := make([]Coord, 0, len(sp.sw.Axes))
	for i, ax := range sp.sw.Axes {
		k := idx[sp.axisDim[i]]
		if err := ax.apply(&s, k); err != nil {
			return Point{}, fmt.Errorf("sweep: point %d, axis %s: %w", p, ax.label(), err)
		}
		coords = append(coords, Coord{Axis: ax.label(), Value: ax.valueLabel(k)})
	}
	s.Name = fmt.Sprintf("%s[%s]", sp.name, CoordLabel(coords))
	return Point{Index: p, Coords: coords, Scenario: s}, nil
}
