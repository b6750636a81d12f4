package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Options are the per-run knobs that do not belong to the spec.
type Options struct {
	// Budget overrides the strategy's budget when positive.
	Budget int
	// CheckpointDir, when set, receives the spec and an atomically
	// updated visited-point log after every round; a later run with
	// Resume picks up exactly where the log ends.
	CheckpointDir string
	// Resume loads the checkpoint from CheckpointDir before searching.
	// A missing checkpoint is a fresh start, a fingerprint mismatch an
	// error.
	Resume bool
}

// PointResult is one newly simulated point, streamed through the
// observe callback as it completes (points restored from a checkpoint
// are not re-simulated and not re-streamed).
type PointResult struct {
	Index  int           `json:"index"`
	Coords []sweep.Coord `json:"coords"`
	// Rung is the probe fidelity (a "runs" override) this simulation
	// ran at; 0 is full fidelity.
	Rung   int              `json:"rung,omitempty"`
	Result *scenario.Result `json:"result"`
}

// Envelope wraps the point for the NDJSON stream.
func (p PointResult) Envelope() report.Envelope {
	return report.NewEnvelope(PointKind, p)
}

// PointRecord is one visited point in the exploration log: the same
// compact summary the sweep aggregate carries, plus where and at what
// fidelity the search touched it. A non-zero Rung marks a candidate the
// probe ladder culled before full fidelity; its metrics are the probe's
// and it never joins a front.
type PointRecord struct {
	sweep.PointSummary
	Round int `json:"round"`
	Rung  int `json:"rung,omitempty"`
}

// Result is the versioned aggregate document of one exploration.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name,omitempty"`
	// TotalPoints is the space size; Visited counts distinct points
	// simulated at any fidelity (including points restored from a
	// checkpoint); FullFidelity counts those promoted all the way.
	TotalPoints  int `json:"total_points"`
	Visited      int `json:"visited"`
	FullFidelity int `json:"full_fidelity"`
	// Resumed counts the visited points restored from the checkpoint
	// log rather than simulated by this run.
	Resumed int `json:"resumed,omitempty"`
	Rounds  int `json:"rounds"`
	Budget  int `json:"budget"`
	Failed  int `json:"failed,omitempty"`
	// Converged means the fronts survived the stability rule;
	// Exhausted means the budget (or the space) ran out first. Both
	// can hold when the last allowed point completed the fronts.
	Converged bool `json:"converged"`
	Exhausted bool `json:"exhausted,omitempty"`
	// Points is the visit log, in visit order (not index order — the
	// order itself is the trajectory the determinism guarantee pins).
	Points []PointRecord `json:"points"`

	Sensitivity []sweep.AxisSensitivity `json:"sensitivity,omitempty"`
	Pareto      []sweep.ParetoFront     `json:"pareto,omitempty"`

	// Stats is the runner-counter delta over this run: on a resumed
	// exploration it proves how little was re-simulated.
	Stats scenario.Stats `json:"runner_stats"`
}

// Envelope wraps the aggregate for the machine-readable surface.
func (r *Result) Envelope() report.Envelope {
	return report.NewEnvelope(FrontKind, r)
}

// strategy defaults.
const (
	defaultNeighborhood = 1
	defaultStableRounds = 2
	defaultMaxPerRound  = 3
)

// searcher is the in-flight state of one exploration.
type searcher struct {
	ex      Explore
	sp      *sweep.Space
	pairs   []sweep.ParetoPair
	rn      *scenario.Runner
	observe func(PointResult)

	seed         uint64
	budget       int
	neighborhood int
	stableRounds int
	maxPerRound  int
	maxRadius    int

	records []PointRecord
	visited map[int]int // point index -> position in records

	round   int
	radius  int
	quiet   int
	prevSig string

	converged bool
	exhausted bool
}

// Run executes the exploration through rn. Every simulation goes
// through the runner's memo, so a durable store shared with an earlier
// (or crashed) run turns repeated evaluations into stage hits. observe,
// when non-nil, fires once per newly simulated point in visit order.
func Run(ctx context.Context, rn *scenario.Runner, ex Explore, opts Options, observe func(PointResult)) (*Result, error) {
	sp, err := ex.Sweep.Index()
	if err != nil {
		return nil, err
	}
	s := &searcher{
		ex:      ex,
		sp:      sp,
		pairs:   ex.pairs(),
		rn:      rn,
		observe: observe,
		seed:    ex.Strategy.Seed,
		visited: map[int]int{},
		radius:  defaultNeighborhood,
	}
	s.neighborhood = ex.Strategy.Neighborhood
	if s.neighborhood == 0 {
		s.neighborhood = defaultNeighborhood
	}
	s.stableRounds = ex.Strategy.StableRounds
	if s.stableRounds == 0 {
		s.stableRounds = defaultStableRounds
	}
	s.maxPerRound = ex.Strategy.MaxPerRound
	if s.maxPerRound == 0 {
		s.maxPerRound = defaultMaxPerRound
	}
	s.maxRadius = s.neighborhood + s.stableRounds
	s.radius = s.neighborhood
	s.budget = ex.Strategy.Budget
	if opts.Budget > 0 {
		s.budget = opts.Budget
	}
	if s.budget <= 0 || s.budget > sp.Total() {
		s.budget = sp.Total()
	}

	fp, err := ex.Fingerprint()
	if err != nil {
		return nil, err
	}
	resumed := 0
	if opts.CheckpointDir != "" {
		if opts.Resume {
			cp, found, err := loadCheckpoint(opts.CheckpointDir, fp, sp.Total())
			if err != nil {
				return nil, err
			}
			if found {
				s.restore(cp)
				resumed = len(s.records)
			}
		}
		if err := saveSpec(opts.CheckpointDir, ex); err != nil {
			return nil, err
		}
	}
	s.prevSig = s.signature()

	before := rn.Stats()
	for !s.converged && !s.exhausted {
		if len(s.records) >= s.budget {
			s.exhausted = true
			break
		}
		var cands []candidate
		if s.round == 0 {
			cands = s.seeds()
		} else {
			cands = s.ringCandidates()
		}
		if len(cands) == 0 {
			if len(s.records) >= s.sp.Total() {
				s.converged, s.exhausted = true, true
				break
			}
			if s.radius < s.maxRadius {
				s.radius++
				continue
			}
			s.converged = true
			break
		}
		if s.round > 0 && len(cands) > s.maxPerRound {
			cands = cands[:s.maxPerRound]
		}
		if room := s.budget - len(s.records); len(cands) > room {
			cands = cands[:room]
		}
		if err := s.evalRound(ctx, cands); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			// Canceled mid-round: the round's state is partial, so it
			// neither checkpoints nor counts; report what stands.
			res := s.result(resumed, rn.Stats().Delta(before))
			return res, ctx.Err()
		}
		sig := s.signature()
		if sig != s.prevSig {
			s.prevSig = sig
			s.quiet = 0
			s.radius = s.neighborhood
		} else {
			s.quiet++
			if s.radius < s.maxRadius {
				s.radius++
			}
		}
		s.round++
		if s.quiet >= s.stableRounds && !s.scoredRemain() {
			s.converged = true
		}
		// The crash window the fault suite aims at: the round's points
		// are simulated (and persisted by a durable store) but the
		// checkpoint below has not recorded them yet.
		if err := faults.Point(faults.SiteExploreStep); err != nil {
			return nil, err
		}
		if opts.CheckpointDir != "" {
			if err := saveCheckpoint(opts.CheckpointDir, s.checkpoint(fp)); err != nil {
				return nil, err
			}
		}
	}
	if opts.CheckpointDir != "" {
		if err := saveCheckpoint(opts.CheckpointDir, s.checkpoint(fp)); err != nil {
			return nil, err
		}
	}
	return s.result(resumed, rn.Stats().Delta(before)), nil
}

// result assembles the aggregate from the visit log.
func (s *searcher) result(resumed int, stats scenario.Stats) *Result {
	res := &Result{
		SchemaVersion: report.SchemaVersion,
		Name:          s.ex.Name,
		TotalPoints:   s.sp.Total(),
		Visited:       len(s.records),
		Resumed:       resumed,
		Rounds:        s.round,
		Budget:        s.budget,
		Converged:     s.converged,
		Exhausted:     s.exhausted,
		Points:        s.records,
		Stats:         stats,
	}
	full := s.fullSummaries()
	for _, p := range full {
		res.FullFidelity++
		if p.Error != "" {
			res.Failed++
		}
	}
	for _, rec := range s.records {
		if rec.Rung != 0 && rec.Error != "" {
			res.Failed++
		}
	}
	res.Sensitivity = sweep.ComputeSensitivity(s.ex.Sweep, full)
	for _, pr := range s.pairs {
		res.Pareto = append(res.Pareto, sweep.ComputeParetoFront(full, pr))
	}
	return res
}

// fullSummaries collects the full-fidelity summaries — the only points
// fronts and sensitivity are computed from.
func (s *searcher) fullSummaries() []sweep.PointSummary {
	out := make([]sweep.PointSummary, 0, len(s.records))
	for _, rec := range s.records {
		if rec.Rung == 0 {
			out = append(out, rec.PointSummary)
		}
	}
	return out
}

// signature canonicalizes the current fronts' objective-space values.
func (s *searcher) signature() string {
	full := s.fullSummaries()
	byIndex := map[int]*sweep.PointSummary{}
	for i := range full {
		byIndex[full[i].Index] = &full[i]
	}
	var fronts []sweep.ParetoFront
	for _, pr := range s.pairs {
		fronts = append(fronts, sweep.ComputeParetoFront(full, pr))
	}
	return frontSignature(fronts, byIndex)
}

// frontIndices returns the union, across pairs, of the current fronts'
// point indices — the centers the descent proposes neighbors of. Each
// distinct objective-space position contributes one representative (its
// lowest index): metric-identical twins tying on a front are one place
// in objective space, and letting every twin seed its own neighborhood
// would drag the certificate across the whole tie class.
func (s *searcher) frontIndices() []int {
	full := s.fullSummaries()
	byIndex := map[int]*sweep.Metrics{}
	for i := range full {
		byIndex[full[i].Index] = full[i].Metrics
	}
	seen := map[int]bool{}
	var out []int
	for _, pr := range s.pairs {
		pos := map[string]bool{}
		for _, idx := range sweep.ComputeParetoFront(full, pr).Indices {
			m := byIndex[idx]
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%g,%g", m.Get(pr.X), m.Get(pr.Y))
			if pos[key] {
				continue
			}
			pos[key] = true
			if !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
	}
	sort.Ints(out)
	return out
}

// candidate is one proposed point with its ranking keys.
type candidate struct {
	index int
	dist  int     // L1 distance to the nearest front point
	score float64 // sensitivity mass of the dimensions it changes
}

// seeds proposes the initial coarse grid: the center of the space, a
// one-dimensional star through it (every value of every dimension, so
// the first round measures every axis's marginal effect), the two
// extreme corners, and Strategy.Samples seeded random extras.
func (s *searcher) seeds() []candidate {
	sizes := s.sp.DimSizes()
	center := make([]int, len(sizes))
	lo := make([]int, len(sizes))
	hi := make([]int, len(sizes))
	for d, n := range sizes {
		center[d] = n / 2
		hi[d] = n - 1
	}
	var order []int
	seen := map[int]bool{}
	add := func(coord []int) {
		p := s.sp.IndexOf(coord)
		if p < 0 || seen[p] {
			return
		}
		if _, dup := s.visited[p]; dup {
			return
		}
		seen[p] = true
		order = append(order, p)
	}
	add(center)
	for d, n := range sizes {
		c := append([]int(nil), center...)
		for k := 0; k < n; k++ {
			c[d] = k
			add(c)
		}
	}
	add(lo)
	add(hi)
	for i, n := 0, s.ex.Strategy.Samples; i < n; i++ {
		p := int(splitmix64(s.seed^0x5eed^uint64(i)) % uint64(s.sp.Total()))
		if _, dup := s.visited[p]; !dup && !seen[p] {
			seen[p] = true
			order = append(order, p)
		}
	}
	cands := make([]candidate, len(order))
	for i, p := range order {
		cands[i] = candidate{index: p}
	}
	return cands
}

// ringCandidates proposes the unvisited axis-aligned neighbors of the
// current front — pure coordinate-descent moves, each changing exactly
// one dimension by up to the current radius — ranked by the observed
// sensitivity of the moved dimension first (a migration flip outranks a
// solver flip once the log shows solver moves nothing), nearer moves
// before farther ones among equals, with a seeded hash breaking the
// remaining ties. The list is returned whole and ranked; the caller
// caps it (and reads its head to decide convergence).
func (s *searcher) ringCandidates() []candidate {
	fronts := s.frontIndices()
	if len(fronts) == 0 {
		// Nothing simulated cleanly yet (every point failed): walk the
		// space in index order until something sticks.
		var out []candidate
		for p := 0; p < s.sp.Total() && len(out) < s.maxPerRound; p++ {
			if _, dup := s.visited[p]; !dup {
				out = append(out, candidate{index: p})
			}
		}
		return out
	}
	scores := s.dimScores()
	sizes := s.sp.DimSizes()
	best := map[int]candidate{}
	for _, fi := range fronts {
		center := s.sp.CoordOf(fi)
		coord := append([]int(nil), center...)
		for d := range sizes {
			for off := -s.radius; off <= s.radius; off++ {
				k := center[d] + off
				if off == 0 || k < 0 || k >= sizes[d] {
					continue
				}
				coord[d] = k
				p := s.sp.IndexOf(coord)
				if p < 0 {
					continue
				}
				if _, dup := s.visited[p]; dup {
					continue
				}
				dist := off
				if dist < 0 {
					dist = -dist
				}
				cur, ok := best[p]
				if !ok || scores[d] > cur.score || (scores[d] == cur.score && dist < cur.dist) {
					best[p] = candidate{index: p, dist: dist, score: scores[d]}
				}
			}
			coord[d] = center[d]
		}
	}
	cands := make([]candidate, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		ha := splitmix64(s.seed ^ uint64(s.round)*0x9e3779b97f4a7c15 ^ uint64(cands[a].index))
		hb := splitmix64(s.seed ^ uint64(s.round)*0x9e3779b97f4a7c15 ^ uint64(cands[b].index))
		if ha != hb {
			return ha < hb
		}
		return cands[a].index < cands[b].index
	})
	return cands
}

// dimScores measures each dimension's observed effect from matched
// pairs: visited full-fidelity points that differ only in that
// dimension. The score is the largest relative spread of any headline
// metric within any matched group — exactly 0 for a dimension whose
// every flip left the metrics untouched, which is what demotes
// metric-neutral twins below real moves.
func (s *searcher) dimScores() []float64 {
	sizes := s.sp.DimSizes()
	scores := make([]float64, len(sizes))
	full := s.fullSummaries()
	type span struct{ lo, hi [3]float64 }
	for d := range sizes {
		groups := map[string]*span{}
		for i := range full {
			p := &full[i]
			if p.Metrics == nil {
				continue
			}
			coord := s.sp.CoordOf(p.Index)
			key := groupKey(coord, d)
			m := [3]float64{float64(p.Metrics.Makespan), float64(p.Metrics.Misses), p.Metrics.Energy}
			g := groups[key]
			if g == nil {
				groups[key] = &span{lo: m, hi: m}
				continue
			}
			for j := 0; j < 3; j++ {
				if m[j] < g.lo[j] {
					g.lo[j] = m[j]
				}
				if m[j] > g.hi[j] {
					g.hi[j] = m[j]
				}
			}
		}
		for _, g := range groups {
			for j := 0; j < 3; j++ {
				if g.hi[j] > 0 {
					if rel := (g.hi[j] - g.lo[j]) / g.hi[j]; rel > scores[d] {
						scores[d] = rel
					}
				}
			}
		}
	}
	return scores
}

func groupKey(coord []int, skip int) string {
	b := make([]byte, 0, len(coord)*3)
	for d, k := range coord {
		if d == skip {
			k = -1
		}
		b = append(b, byte(d), byte(k>>8), byte(k))
	}
	return string(b)
}

// scoredRemain reports whether an unvisited axis-aligned neighbor of
// the front, within the maximum radius, still lies along a dimension
// the log has shown to move the metrics. It is the certificate the
// stability rule demands on top of quiet rounds: a front is declared
// stable only once every nearby move that could plausibly improve it
// has been tried. Dimensions whose every observed flip left the metrics
// untouched (solver twins) do not block convergence — that is the
// budget the search saves.
func (s *searcher) scoredRemain() bool {
	saved := s.radius
	s.radius = s.maxRadius
	cands := s.ringCandidates()
	s.radius = saved
	for _, c := range cands {
		if c.score > 0 {
			return true
		}
	}
	return false
}

// evalRound simulates one round's candidates: first through the probe
// ladder (each rung culls candidates the full-fidelity fronts already
// dominate), then the survivors at full fidelity. Every outcome lands
// in the visit log.
func (s *searcher) evalRound(ctx context.Context, cands []candidate) error {
	alive := make([]int, len(cands))
	for i, c := range cands {
		alive[i] = c.index
	}
	for _, rung := range s.ex.Strategy.Rungs {
		if len(alive) == 0 {
			return nil
		}
		summaries, err := s.simulate(ctx, alive, rung)
		if err != nil {
			return err
		}
		var next []int
		for i, sum := range summaries {
			if ctx.Err() == nil && !sum.Canceled && !s.dominated(sum) {
				next = append(next, alive[i])
				continue
			}
			if sum.Canceled {
				continue // not visited: a resumed run retries it
			}
			s.append(PointRecord{PointSummary: sum, Round: s.round, Rung: rung})
		}
		alive = next
	}
	summaries, err := s.simulate(ctx, alive, 0)
	if err != nil {
		return err
	}
	for _, sum := range summaries {
		if sum.Canceled {
			continue
		}
		s.append(PointRecord{PointSummary: sum, Round: s.round})
	}
	return nil
}

// dominated reports whether the full-fidelity fronts dominate the
// probe summary under every Pareto pair — the cull rule of the ladder.
func (s *searcher) dominated(sum sweep.PointSummary) bool {
	if sum.Metrics == nil {
		return false
	}
	full := s.fullSummaries()
	for _, pr := range s.pairs {
		front := sweep.ComputeParetoFront(full, pr)
		x, y := sum.Metrics.Get(pr.X), sum.Metrics.Get(pr.Y)
		dominatedHere := false
		for _, idx := range front.Indices {
			for i := range full {
				if full[i].Index != idx || full[i].Metrics == nil {
					continue
				}
				fx, fy := full[i].Metrics.Get(pr.X), full[i].Metrics.Get(pr.Y)
				if fx <= x && fy <= y && (fx < x || fy < y) {
					dominatedHere = true
				}
			}
		}
		if !dominatedHere {
			return false
		}
	}
	return len(s.pairs) > 0
}

// simulate runs the given points through the runner at the given rung
// fidelity (0 = the point's own spec), returning summaries in the same
// order and streaming each completion to the observer.
func (s *searcher) simulate(ctx context.Context, indices []int, rung int) ([]sweep.PointSummary, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	points := make([]sweep.Point, len(indices))
	specs := make([]scenario.Scenario, len(indices))
	for i, p := range indices {
		pt, err := s.sp.PointAt(p)
		if err != nil {
			return nil, err
		}
		if rung > 0 && (pt.Scenario.Runs == 0 || rung < pt.Scenario.Runs) {
			pt.Scenario.Runs = rung
		}
		points[i] = pt
		specs[i] = pt.Scenario
	}
	results, errs, done := s.rn.RunBatchStream(ctx, specs, func(i int, r *scenario.Result) bool {
		if s.observe != nil {
			s.observe(PointResult{Index: points[i].Index, Coords: points[i].Coords, Rung: rung, Result: r})
		}
		return true
	})
	<-done
	out := make([]sweep.PointSummary, len(indices))
	for i, pt := range points {
		ps := sweep.PointSummary{Index: pt.Index, Coords: pt.Coords}
		switch r := results[i]; {
		case r == nil:
			ps.Canceled = true
		case r.Error != "" && (errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded)):
			ps.Key, ps.Error, ps.Canceled = r.Key, r.Error, true
		case r.Error != "":
			ps.Key, ps.Error = r.Key, r.Error
		default:
			ps.Key = r.Key
			ps.Metrics = sweep.MetricsOf(r)
		}
		out[i] = ps
	}
	return out, nil
}

// append logs a visited point.
func (s *searcher) append(rec PointRecord) {
	if _, dup := s.visited[rec.Index]; dup {
		return
	}
	s.visited[rec.Index] = len(s.records)
	s.records = append(s.records, rec)
}

// restore rebuilds the search state from a checkpoint.
func (s *searcher) restore(cp *checkpoint) {
	s.records = cp.Visited
	s.visited = map[int]int{}
	for i, rec := range s.records {
		s.visited[rec.Index] = i
	}
	s.round = cp.Round
	s.radius = cp.Radius
	s.quiet = cp.Quiet
	s.converged = cp.Converged
	// A checkpointed "exhausted" is not restored: the resuming run may
	// carry a larger budget, and the loop re-derives exhaustion from
	// the live one.
}

// checkpoint snapshots the search state.
func (s *searcher) checkpoint(fp string) *checkpoint {
	return &checkpoint{
		SchemaVersion: report.SchemaVersion,
		Fingerprint:   fp,
		Round:         s.round,
		Radius:        s.radius,
		Quiet:         s.quiet,
		Converged:     s.converged,
		Exhausted:     s.exhausted,
		Visited:       s.records,
	}
}

// splitmix64 is the 64-bit finalizer of the splitmix generator — the
// seeded, platform-independent hash behind every tie-break.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coordLabel renders a point's coordinates as the familiar
// axis=value,... label.
func coordLabel(coords []sweep.Coord) string {
	b := make([]byte, 0, 32)
	for i, c := range coords {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c.Axis...)
		b = append(b, '=')
		b = append(b, c.Value...)
	}
	return string(b)
}
