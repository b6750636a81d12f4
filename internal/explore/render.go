package explore

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/sweep"
)

// Render produces the terminal form of an exploration aggregate — the
// human-readable shape of `compmem explore`: the coverage summary, the
// memo line, the visit log in trajectory order, and the fronts the
// search converged to.
func Render(r *Result) string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "explore"
	}
	fmt.Fprintf(&b, "explore %s: visited %d of %d points (%.0f%%) in %d rounds, budget %d",
		name, r.Visited, r.TotalPoints, 100*float64(r.Visited)/float64(max(r.TotalPoints, 1)), r.Rounds, r.Budget)
	if r.Resumed > 0 {
		fmt.Fprintf(&b, ", %d restored from checkpoint", r.Resumed)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", r.Failed)
	}
	switch {
	case r.Converged && r.Exhausted:
		b.WriteString(" — space exhausted")
	case r.Converged:
		b.WriteString(" — converged")
	case r.Exhausted:
		b.WriteString(" — budget exhausted")
	}
	b.WriteByte('\n')
	b.WriteString(sweep.StatsLine(r.Stats))
	b.WriteString("\n\n")

	byIndex := map[int]*sweep.PointSummary{}
	pt := &report.Table{
		Title:   "Visited points (in visit order)",
		Headers: []string{"#", "round", "point", "makespan", "misses", "energy"},
	}
	for i := range r.Points {
		p := &r.Points[i]
		byIndex[p.Index] = &p.PointSummary
		label := sweep.CoordLabel(p.Coords)
		if p.Rung != 0 {
			label += fmt.Sprintf(" (culled at rung %d)", p.Rung)
		}
		switch {
		case p.Error != "":
			pt.AddRow(p.Index, p.Round, label, "error: "+p.Error, "", "")
		case p.Metrics == nil:
			pt.AddRow(p.Index, p.Round, label, "-", "-", "-")
		default:
			pt.AddRow(p.Index, p.Round, label, p.Metrics.Makespan, p.Metrics.Misses, p.Metrics.Energy)
		}
	}
	b.WriteString(pt.String())

	b.WriteString(sweep.FrontTables(r.Pareto, func(idx int) *sweep.PointSummary { return byIndex[idx] }))
	return b.String()
}
