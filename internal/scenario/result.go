package scenario

import (
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/report"
)

// ResultKind is the envelope kind of a scenario result document.
const ResultKind = "scenario.result"

// Curve is the serializable per-entity miss curve m_i(z_p).
type Curve struct {
	Entity   string    `json:"entity"`
	Sizes    []int     `json:"sizes"`
	Misses   []float64 `json:"misses"`
	Accesses float64   `json:"accesses"`
}

// EntitySummary is one allocation entity's cache statistics in a run.
type EntitySummary struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Units    int    `json:"units,omitempty"`
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

// RunSummary is the structured outcome of one measured execution.
type RunSummary struct {
	App         string            `json:"app"`
	Strategy    string            `json:"strategy"`
	Makespan    uint64            `json:"makespan"`
	TotalMisses uint64            `json:"total_misses"`
	L2MissRate  float64           `json:"l2_miss_rate"`
	CPIMean     float64           `json:"cpi_mean"`
	Energy      float64           `json:"energy"`
	Entities    []EntitySummary   `json:"entities"`
	TaskCycles  map[string]uint64 `json:"task_cycles"`
	TaskCPU     map[string]int    `json:"task_cpu"`
}

// Entity returns the named entity summary, or nil.
func (r *RunSummary) Entity(name string) *EntitySummary {
	for i := range r.Entities {
		if r.Entities[i].Name == name {
			return &r.Entities[i]
		}
	}
	return nil
}

// OptimizeSummary is the structured outcome of the profile+solve stage.
type OptimizeSummary struct {
	Solver     string             `json:"solver"`
	Budget     int                `json:"budget"`
	TotalUnits int                `json:"total_units"`
	Allocation map[string]int     `json:"allocation"`
	Expected   map[string]float64 `json:"expected"`
}

// ComposeEntry compares expected and simulated misses for one entity.
type ComposeEntry struct {
	Name      string  `json:"name"`
	Expected  float64 `json:"expected"`
	Simulated uint64  `json:"simulated"`
	RelDiff   float64 `json:"rel_diff"`
}

// ComposeSummary is the Figure 3 compositionality analysis.
type ComposeSummary struct {
	Entries        []ComposeEntry `json:"entries"`
	TotalSimulated uint64         `json:"total_simulated"`
	MaxRelDiff     float64        `json:"max_rel_diff"`
	MeanRelDiff    float64        `json:"mean_rel_diff"`
}

// Compositional reports the paper's criterion at the given threshold.
func (c *ComposeSummary) Compositional(threshold float64) bool {
	return c.MaxRelDiff <= threshold
}

// Result is the versioned result document of one scenario. Which
// sections are present depends on the spec's partition policy; Error is
// set (and the sections nil) when the scenario failed. Scenario points
// at the spec the result was prepared from (normalized when preparing
// succeeded), which every result of that prepared scenario shares
// read-only; the Runner always sets it.
type Result struct {
	SchemaVersion int       `json:"schema_version"`
	Key           string    `json:"key,omitempty"`
	Scenario      *Scenario `json:"scenario"`
	Error         string    `json:"error,omitempty"`

	Shared      *RunSummary      `json:"shared,omitempty"`
	Partitioned *RunSummary      `json:"partitioned,omitempty"`
	Optimize    *OptimizeSummary `json:"optimize,omitempty"`
	Compose     *ComposeSummary  `json:"compose,omitempty"`
	Curves      []Curve          `json:"curves,omitempty"`
}

// MissRatio returns shared misses / partitioned misses (the paper's "N
// times less misses"), or 0 when either run is missing.
func (r *Result) MissRatio() float64 {
	if r.Shared == nil || r.Partitioned == nil || r.Partitioned.TotalMisses == 0 {
		return 0
	}
	return float64(r.Shared.TotalMisses) / float64(r.Partitioned.TotalMisses)
}

// Envelope wraps the result for the machine-readable output surface.
func (r *Result) Envelope() report.Envelope {
	return report.NewEnvelope(ResultKind, r)
}

// The summaries share the maps and slices of the stage values they
// convert instead of copying them: stage values are immutable, and so is
// every summary, since result entries hand one summary to every result
// of the same content key. Consumers of a Result read its sections and
// never modify them.

// summarizeRun converts a core run result into the document shape.
func summarizeRun(res *core.Result) *RunSummary {
	s := &RunSummary{
		App:         res.App,
		Strategy:    res.Strategy.String(),
		Makespan:    res.Platform.Makespan,
		TotalMisses: res.TotalMisses(),
		L2MissRate:  res.L2MissRate,
		CPIMean:     res.CPIMean,
		Energy:      res.Energy,
		Entities:    make([]EntitySummary, len(res.Entities)),
		TaskCycles:  res.TaskCycles,
		TaskCPU:     res.TaskCPU,
	}
	for i, e := range res.Entities {
		s.Entities[i] = EntitySummary{
			Name:     e.Name,
			Kind:     e.Kind.String(),
			Units:    e.Units,
			Accesses: e.Accesses,
			Misses:   e.Misses,
		}
	}
	return s
}

// summarizeOptimize converts an optimizer result into the document shape
// (curves are carried separately, only under the profile policy). The
// pipeline always solves with the MCKP solver (see optimizeConfig).
func summarizeOptimize(opt *core.OptimizeResult) *OptimizeSummary {
	return &OptimizeSummary{
		Solver:     core.SolverMCKP.String(),
		Budget:     opt.Budget,
		TotalUnits: opt.Allocation.TotalUnits(),
		Allocation: opt.Allocation,
		Expected:   opt.Expected,
	}
}

// summarizeCompose converts the Figure 3 report into the document shape.
func summarizeCompose(rep *core.ComposeReport) *ComposeSummary {
	s := &ComposeSummary{
		Entries:        make([]ComposeEntry, len(rep.Entries)),
		TotalSimulated: rep.TotalSimulated,
		MaxRelDiff:     rep.MaxRelDiff,
		MeanRelDiff:    rep.MeanRelDiff,
	}
	for i, e := range rep.Entries {
		s.Entries[i] = ComposeEntry{Name: e.Name, Expected: e.Expected, Simulated: e.Simulated, RelDiff: e.RelDiff}
	}
	return s
}

// summarizeCurves converts profiled curves into the document shape.
func summarizeCurves(curves []profile.Curve) []Curve {
	out := make([]Curve, len(curves))
	for i, c := range curves {
		out[i] = Curve{Entity: c.Entity, Sizes: c.Sizes, Misses: c.Misses, Accesses: c.Accesses}
	}
	return out
}
