package sweep

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/scenario"
)

// Render produces the terminal form of a sweep aggregate — the
// human-readable shape of `compmem sweep`: the expansion summary, the
// memo-amplification line, the per-point outcomes, the per-axis
// sensitivity tables, the metric extremes and the Pareto fronts, all as
// internal/report tables.
func Render(r *Result) string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "sweep"
	}
	fmt.Fprintf(&b, "sweep %s: %d points", name, r.TotalPoints)
	if r.Truncated > 0 {
		fmt.Fprintf(&b, " (%d executed, %d truncated by the point cap)", r.Executed, r.Truncated)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", r.Failed)
	}
	if r.Canceled > 0 {
		fmt.Fprintf(&b, ", %d canceled", r.Canceled)
	}
	b.WriteByte('\n')
	b.WriteString(StatsLine(r.Stats))
	b.WriteString("\n\n")

	pt := &report.Table{
		Title:   "Points",
		Headers: []string{"#", "point", "makespan", "misses", "energy", "CPI"},
	}
	for _, p := range r.Points {
		label := CoordLabel(p.Coords)
		switch {
		case p.Canceled:
			pt.AddRow(p.Index, label, "canceled", "", "", "")
		case p.Error != "":
			pt.AddRow(p.Index, label, "error: "+p.Error, "", "", "")
		case p.Metrics == nil:
			pt.AddRow(p.Index, label, "-", "-", "-", "-")
		default:
			pt.AddRow(p.Index, label, p.Metrics.Makespan, p.Metrics.Misses, p.Metrics.Energy, p.Metrics.CPIMean)
		}
	}
	b.WriteString(pt.String())

	for _, s := range r.Sensitivity {
		if !sensitivityHasData(s) {
			continue
		}
		t := &report.Table{
			Title:   fmt.Sprintf("\nSensitivity to %s (means over all other axes)", s.Axis),
			Headers: []string{s.Axis, "points", "mean makespan", "mean misses", "mean energy"},
		}
		for _, row := range s.Rows {
			t.AddRow(row.Value, row.N, row.MeanMakespan, row.MeanMisses, row.MeanEnergy)
		}
		b.WriteString(t.String())
	}

	if len(r.Extremes) > 0 {
		t := &report.Table{
			Title:   "\nBest / worst points per metric",
			Headers: []string{"metric", "best point", "best value", "worst point", "worst value"},
		}
		for _, e := range r.Extremes {
			t.AddRow(e.Metric, pointLabel(r, e.BestIndex), e.BestValue, pointLabel(r, e.WorstIndex), e.WorstValue)
		}
		b.WriteString(t.String())
	}

	b.WriteString(FrontTables(r.Pareto, func(idx int) *PointSummary { return &r.Points[idx] }))
	return b.String()
}

// StatsLine renders the memo-amplification line of a sweep or an
// exploration from its runner-counter delta.
func StatsLine(st scenario.Stats) string {
	return fmt.Sprintf("runner: %d stage runs (%d profile, %d optimize, %d measured), %d memo hits",
		st.StageRuns, st.ProfileRuns, st.OptimizeRuns, st.RunRuns, st.MemoHits)
}

// FrontTables renders one table per non-empty Pareto front, its rows
// the front's points in front order; point resolves a front index to
// its summary, and a member it resolves to nil or to a summary without
// metrics is left out.
func FrontTables(fronts []ParetoFront, point func(idx int) *PointSummary) string {
	var b strings.Builder
	for _, f := range fronts {
		if len(f.Indices) == 0 {
			continue
		}
		t := &report.Table{
			Title:   fmt.Sprintf("\nPareto front: %s vs %s (non-dominated, both minimized)", f.X, f.Y),
			Headers: []string{"#", "point", f.X, f.Y},
		}
		for _, idx := range f.Indices {
			p := point(idx)
			if p == nil || p.Metrics == nil {
				continue
			}
			t.AddRow(idx, CoordLabel(p.Coords), p.Metrics.Get(f.X), p.Metrics.Get(f.Y))
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func sensitivityHasData(s AxisSensitivity) bool {
	for _, row := range s.Rows {
		if row.N > 0 {
			return true
		}
	}
	return false
}

func pointLabel(r *Result, idx int) string {
	if idx < 0 || idx >= len(r.Points) {
		return "-"
	}
	return fmt.Sprintf("[%d] %s", idx, CoordLabel(r.Points[idx].Coords))
}
