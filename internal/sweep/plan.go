package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"slices"

	"repro/internal/scenario"
)

// Plan is a sweep expanded and prepared for execution: every point's
// coordinates and its prepared scenario (normalized spec and content
// key), plus what the aggregate needs of the sweep. Prepare memoizes a
// plan in the runner's memo, so a warm sweep skips expanding, decoding
// axis values, normalizing and keying its points. A plan is immutable:
// ExecutePrepared shares its coordinates and specs read-only with the
// results and aggregates it builds.
type Plan struct {
	name   string
	labels []string // axis labels, for the sensitivity tables
	pareto []ParetoPair
	total  int
	coords [][]Coord
	// prepared holds what Runner.Prepare returned for every point, and
	// errs, when a point failed to prepare, each point's error: such a
	// plan is never memoized, and each failure becomes its point's error
	// result.
	prepared []*scenario.Result
	errs     []error
	l2Bytes  []int // each prepared point's L2 capacity, a metric
}

// Len reports the number of points the plan executes.
func (p *Plan) Len() int { return len(p.coords) }

// errUnprepared fails the memoized build of a plan with a point that
// did not prepare, so nothing is cached.
var errUnprepared = errors.New("sweep: a point failed to prepare")

// Prepare expands the sweep and prepares its points on rn, through a
// memory-only memo entry keyed by a hash of every field of the sweep:
// the first Prepare of a sweep builds the plan, concurrent ones share
// that build, and later ones are one hash and one lookup. The only
// errors are the sweep's expansion errors. A sweep with a point that
// fails to prepare is planned afresh on every call and never memoized,
// so registering a missing workload takes effect on the next call.
func Prepare(rn *scenario.Runner, sw Sweep) (*Plan, error) {
	key, ok := planKey(sw)
	if !ok {
		return buildPlan(rn, sw)
	}
	var (
		built    *Plan
		buildErr error
		owner    bool
	)
	v, err := rn.Memoize(key, func() (any, error) {
		owner = true
		built, buildErr = buildPlan(rn, sw)
		switch {
		case buildErr != nil:
			return nil, buildErr
		case built.errs != nil:
			return nil, errUnprepared
		}
		return built, nil
	})
	switch {
	case err == nil:
		return v.(*Plan), nil
	case owner:
		return built, buildErr
	}
	// The build this call waited on failed: plan on our own.
	return buildPlan(rn, sw)
}

// buildPlan expands the sweep and prepares every point.
func buildPlan(rn *scenario.Runner, sw Sweep) (*Plan, error) {
	points, total, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	p := &Plan{
		name:     sw.Name,
		labels:   make([]string, len(sw.Axes)),
		pareto:   slices.Clone(sw.Pareto),
		total:    total,
		coords:   make([][]Coord, len(points)),
		prepared: make([]*scenario.Result, len(points)),
		l2Bytes:  make([]int, len(points)),
	}
	for i, ax := range sw.Axes {
		p.labels[i] = ax.label()
	}
	for i, pt := range points {
		p.coords[i] = pt.Coords
		r, perr := rn.Prepare(pt.Scenario)
		p.prepared[i] = r
		if perr == nil {
			p.l2Bytes[i] = l2BytesOf(r.Scenario)
			continue
		}
		if p.errs == nil {
			p.errs = make([]error, len(points))
		}
		p.errs[i] = perr
	}
	return p, nil
}

// planKeyDoc is what a plan key hashes: every field of the sweep. Raw
// axis values are hashed as their exact text, which their coordinate
// labels are made of. A base with an empty sizes list and one without
// sizes encode alike and share a key, which is right: both normalize to
// the default ladder.
type planKeyDoc struct {
	Name      string            `json:"name"`
	Base      scenario.Scenario `json:"base"`
	Axes      []planKeyAxis     `json:"axes"`
	MaxPoints int               `json:"max_points"`
	Pareto    []ParetoPair      `json:"pareto"`
}

type planKeyAxis struct {
	Name   string   `json:"name"`
	Field  string   `json:"field"`
	Values []string `json:"values"`
	Range  *Range   `json:"range"`
	Zip    string   `json:"zip"`
}

// planKey returns the memo key of the sweep's plan, hashing the key
// document as it encodes; ok is false when the sweep cannot be encoded
// (a non-finite float in a literal base), which leaves it unmemoized.
func planKey(sw Sweep) (key string, ok bool) {
	doc := planKeyDoc{
		Name:      sw.Name,
		Base:      sw.Base,
		Axes:      make([]planKeyAxis, len(sw.Axes)),
		MaxPoints: sw.MaxPoints,
		Pareto:    sw.Pareto,
	}
	for i, ax := range sw.Axes {
		a := planKeyAxis{Name: ax.Name, Field: ax.Field, Range: ax.Range, Zip: ax.Zip, Values: make([]string, len(ax.Values))}
		for k, v := range ax.Values {
			a.Values[k] = string(v)
		}
		doc.Axes[i] = a
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(doc); err != nil {
		return "", false
	}
	const prefix = "sweep.plan|"
	var sum [sha256.Size]byte
	var b [len(prefix) + 2*16]byte
	copy(b[:], prefix)
	hex.Encode(b[len(prefix):], h.Sum(sum[:0])[:16])
	return string(b[:]), true
}
