package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"slices"

	"repro/internal/scenario"
)

// Plan is a sweep expanded and prepared for execution: every point's
// coordinates and its prepared scenario (normalized spec and content
// key), plus what the aggregate needs of the sweep, such as every
// point's row in each axis's sensitivity table. Prepare memoizes a plan
// in the runner's memo, so a warm sweep skips expanding, decoding axis
// values, normalizing and keying its points, and numbering their
// coordinates. A plan is immutable: ExecutePrepared shares its
// coordinates and specs read-only with the results and aggregates it
// builds.
type Plan struct {
	name   string
	axes   axisRows // the sensitivity rows of the points
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
		pareto:   slices.Clone(sw.Pareto),
		total:    total,
		coords:   make([][]Coord, len(points)),
		prepared: make([]*scenario.Result, len(points)),
		l2Bytes:  make([]int, len(points)),
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
	p.axes = numberAxes(sw, len(points), func(i int) []Coord { return p.coords[i] })
	return p, nil
}

// planKey returns the memo key of the sweep's plan, a hash of every
// field of the sweep. The name, the axes, the point cap and the Pareto
// pairs are written straight into the hashed document, every string and
// raw axis value length-prefixed, so no two sweeps whose values merely
// concatenate alike share a key. Raw axis values are hashed as their
// exact text, which their coordinate labels are made of. The base ends
// the document as its JSON encoding, so a base with an empty sizes list
// and one without sizes share a key, which is right: both normalize to
// the default ladder. ok is false when the base cannot be encoded (a
// non-finite float in a literal base), which leaves the sweep
// unmemoized.
func planKey(sw Sweep) (key string, ok bool) {
	base, err := json.Marshal(sw.Base)
	if err != nil {
		return "", false
	}
	var buf [1024]byte
	b := appendKeyBytes(buf[:0], sw.Name)
	b = appendKeyInt(b, int64(len(sw.Axes)))
	for _, ax := range sw.Axes {
		b = appendKeyBytes(b, ax.Name)
		b = appendKeyBytes(b, ax.Field)
		b = appendKeyBytes(b, ax.Zip)
		if r := ax.Range; r != nil {
			b = append(b, 1)
			b = appendKeyInt(b, r.From)
			b = appendKeyInt(b, int64(r.Count))
			b = appendKeyInt(b, r.Step)
		} else {
			b = append(b, 0)
		}
		b = appendKeyInt(b, int64(len(ax.Values)))
		for _, v := range ax.Values {
			b = appendKeyBytes(b, v)
		}
	}
	b = appendKeyInt(b, int64(sw.MaxPoints))
	b = appendKeyInt(b, int64(len(sw.Pareto)))
	for _, pr := range sw.Pareto {
		b = appendKeyBytes(b, pr.X)
		b = appendKeyBytes(b, pr.Y)
	}
	sum := sha256.Sum256(append(b, base...))
	const prefix = "sweep.plan|"
	var k [len(prefix) + 2*16]byte
	copy(k[:], prefix)
	hex.Encode(k[len(prefix):], sum[:16])
	return string(k[:]), true
}

// appendKeyBytes appends s to a plan key document, prefixed by its
// length.
func appendKeyBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(appendKeyInt(b, int64(len(s))), s...)
}

// appendKeyInt appends v to a plan key document in a fixed eight bytes.
func appendKeyInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}
