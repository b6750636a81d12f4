// Package explore is the budgeted, adaptive counterpart of package
// sweep: where a sweep exhaustively simulates a declared cross-product,
// an exploration walks the same space point by point — coarse seeding
// first (a center point, a one-dimensional star through it, the extreme
// corners), then Pareto-guided neighborhood descent that proposes only
// unvisited neighbors of the current front, ranked by per-axis
// sensitivity observed so far — and stops when the front stops moving,
// typically after simulating a fraction of the space.
//
// Explorations are data, exactly like sweeps: a versioned JSON spec
// wraps a sweep spec (axes, zip groups, ranges, Pareto pairs — reused
// verbatim) plus a strategy block (seed, budget, neighborhood, stop
// rule, optional low-fidelity rungs). Identical specs yield identical
// trajectories: every choice the search makes — seeding, candidate
// ranking, tie-breaks — is a deterministic function of the spec and the
// simulated outcomes, so two runs of one spec visit the same points in
// the same order on any machine.
//
// Every evaluation goes through the memoizing scenario.Runner, so an
// exploration resumed over a durable store re-simulates nothing it
// already computed; progress itself checkpoints as spec + visited-point
// log (see Options.CheckpointDir), making a killed exploration
// resumable with zero re-executed points. The exhaustive sweep remains
// the differential oracle: on spaces small enough to expand, the
// explored Pareto fronts must land on exactly the exhaustive fronts'
// objective values.
package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// SpecVersion is the current exploration spec version.
const SpecVersion = 1

// Envelope kinds of the exploration surface.
const (
	// PointKind wraps one visited point on the NDJSON stream.
	PointKind = "explore.point"
	// FrontKind wraps the final aggregate document (the fronts the
	// search converged to, plus the visit log).
	FrontKind = "explore.front"
)

// Spec is the wire form of an exploration. Sweep is either a sweep spec
// object (see sweep.Spec) or a JSON string naming a built-in sweep;
// the wrapped sweep's axes, zip groups, ranges and Pareto pairs define
// the space and the objectives, and its base scenario may itself name a
// built-in. Unknown fields anywhere are an error.
type Spec struct {
	SpecVersion int             `json:"spec_version,omitempty"`
	Name        string          `json:"name,omitempty"`
	Sweep       json.RawMessage `json:"sweep"`
	Strategy    Strategy        `json:"strategy,omitzero"`
}

// Strategy is the search-control block of an exploration spec. The zero
// value is a valid strategy: unbounded budget, neighborhood 1, two
// stable rounds, three proposals per round, no rungs.
type Strategy struct {
	// Seed parameterizes every tie-break the search makes (candidate
	// ordering among equals, random samples). Two specs differing only
	// in Seed explore the same space along different trajectories.
	Seed uint64 `json:"seed,omitempty"`
	// Budget caps the number of distinct points simulated at any
	// fidelity; 0 means the whole space. The CLI/API -budget option
	// overrides it per run without changing the spec's identity (the
	// checkpoint fingerprint excludes it, so a resumed run may extend
	// the budget of an exhausted one).
	Budget int `json:"budget,omitempty"`
	// Rungs is an ascending ladder of low-fidelity probe runs
	// (scenario "runs" overrides) for successive halving: a candidate
	// is first simulated at each rung and discarded as soon as the
	// current full-fidelity front dominates it under every Pareto
	// pair; only candidates surviving the ladder are promoted to
	// full-fidelity simulation. Empty means every candidate simulates
	// at full fidelity directly — the default, and the only mode with
	// the exhaustive-oracle guarantee (a rung can misjudge a noisy
	// candidate).
	Rungs []int `json:"rungs,omitempty"`
	// Neighborhood is the search radius (in coordinate steps, L1) the
	// descent resets to after every front improvement; default 1.
	Neighborhood int `json:"neighborhood,omitempty"`
	// StableRounds is how many consecutive non-improving rounds the
	// search tolerates before declaring convergence; default 2. The
	// radius escalates by one per quiet round up to
	// Neighborhood+StableRounds, so the final rounds look farther out.
	StableRounds int `json:"stable_rounds,omitempty"`
	// MaxPerRound caps the candidates simulated per round; default 3.
	// Smaller rounds spend the budget more carefully (each round's
	// outcomes re-rank the next round's candidates) at the cost of
	// more rounds.
	MaxPerRound int `json:"max_per_round,omitempty"`
	// Samples adds this many seeded random unvisited points to the
	// initial seeding round; default 0. Useful on rugged spaces where
	// the center-plus-star seeding can strand the descent.
	Samples int `json:"samples,omitempty"`
}

// Explore is the parsed, base-resolved form ready to run.
type Explore struct {
	Name     string
	Sweep    sweep.Sweep
	Strategy Strategy
}

// Parse decodes an exploration spec strictly. lookupBase resolves
// scenario-level "base" names inside the wrapped sweep spec;
// lookupSweep resolves a built-in sweep when the "sweep" field is a
// JSON string instead of an object. Both may be nil.
func Parse(raw []byte, lookupBase func(string) (scenario.Scenario, bool), lookupSweep func(string) (sweep.Sweep, bool)) (Explore, error) {
	var spec Spec
	if err := scenario.DecodeStrict(raw, &spec); err != nil {
		return Explore{}, fmt.Errorf("explore: parsing spec: %w", err)
	}
	if spec.SpecVersion != 0 && spec.SpecVersion != SpecVersion {
		return Explore{}, fmt.Errorf("explore: unsupported spec_version %d (current %d)", spec.SpecVersion, SpecVersion)
	}
	if len(spec.Sweep) == 0 {
		return Explore{}, fmt.Errorf("explore: spec has no \"sweep\" (an exploration needs a space)")
	}
	ex := Explore{Name: spec.Name, Strategy: spec.Strategy}
	var builtin string
	if err := json.Unmarshal(spec.Sweep, &builtin); err == nil {
		if lookupSweep == nil {
			return Explore{}, fmt.Errorf("explore: built-in sweep %q not supported here", builtin)
		}
		sw, ok := lookupSweep(builtin)
		if !ok {
			return Explore{}, fmt.Errorf("explore: unknown built-in sweep %q", builtin)
		}
		ex.Sweep = sw
	} else {
		sw, err := sweep.Parse(spec.Sweep, lookupBase)
		if err != nil {
			return Explore{}, err
		}
		ex.Sweep = sw
	}
	if err := ex.Strategy.validate(); err != nil {
		return Explore{}, err
	}
	if ex.Name == "" {
		ex.Name = ex.Sweep.Name
	}
	return ex, nil
}

func (st Strategy) validate() error {
	if st.Budget < 0 || st.Neighborhood < 0 || st.StableRounds < 0 || st.MaxPerRound < 0 || st.Samples < 0 {
		return fmt.Errorf("explore: strategy values must be non-negative")
	}
	prev := 0
	for _, r := range st.Rungs {
		if r <= prev {
			return fmt.Errorf("explore: rungs must be positive and strictly ascending, got %v", st.Rungs)
		}
		prev = r
	}
	return nil
}

// SpecJSON renders the exploration back into its canonical wire form,
// with the sweep's base scenario resolved inline — the self-contained
// document a checkpoint directory stores, re-parseable with nil
// lookups.
func (ex Explore) SpecJSON() ([]byte, error) {
	base, err := json.Marshal(ex.Sweep.Base)
	if err != nil {
		return nil, fmt.Errorf("explore: encoding base scenario: %w", err)
	}
	sw, err := json.Marshal(sweep.Spec{
		SpecVersion: sweep.SpecVersion,
		Name:        ex.Sweep.Name,
		Base:        base,
		Axes:        ex.Sweep.Axes,
		MaxPoints:   ex.Sweep.MaxPoints,
		Pareto:      ex.Sweep.Pareto,
	})
	if err != nil {
		return nil, fmt.Errorf("explore: encoding sweep: %w", err)
	}
	return json.MarshalIndent(Spec{
		SpecVersion: SpecVersion,
		Name:        ex.Name,
		Sweep:       sw,
		Strategy:    ex.Strategy,
	}, "", "  ")
}

// Fingerprint identifies the exploration for checkpoint compatibility:
// a hash of the canonical spec with the budget zeroed, so a resumed run
// may raise (or drop) the budget of a checkpointed one but any change
// to the space, the objectives or the search behavior — which would
// make the logged trajectory unreproducible — is rejected.
func (ex Explore) Fingerprint() (string, error) {
	id := ex
	id.Strategy.Budget = 0
	raw, err := id.SpecJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16]), nil
}

// pairs returns the exploration's Pareto objectives: the wrapped
// sweep's pairs, or the default fronts when it names none.
func (ex Explore) pairs() []sweep.ParetoPair {
	if len(ex.Sweep.Pareto) > 0 {
		return ex.Sweep.Pareto
	}
	return sweep.DefaultPareto()
}
