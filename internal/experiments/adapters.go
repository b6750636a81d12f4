package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rtos"
	"repro/internal/scenario"
)

// This file derives every table and figure of the evaluation from
// scenario.Result documents — the thin report layer over the scenario
// API. TestDefaultTopologyGolden pins every command's rendered bytes.

// entityKinds maps entity name → kind string from a partitioned run.
// Missing names resolve to "task", the zero core.EntityKind.
func entityKinds(run *scenario.RunSummary) func(string) string {
	kinds := make(map[string]string, len(run.Entities))
	for _, e := range run.Entities {
		kinds[e.Name] = e.Kind
	}
	return func(name string) string {
		if k, ok := kinds[name]; ok {
			return k
		}
		return core.EntityTask.String()
	}
}

// AllocationTableFromResult renders a study result as the paper's
// Table 1 or Table 2.
func AllocationTableFromResult(r *scenario.Result, title string) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"entity", "kind", "alloc units", "expected misses"},
	}
	names := make([]string, 0, len(r.Optimize.Allocation))
	for n := range r.Optimize.Allocation {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := entityKinds(r.Partitioned)
	for _, n := range names {
		t.AddRow(n, kind(n), r.Optimize.Allocation[n], r.Optimize.Expected[n])
	}
	t.AddRow("TOTAL", "", r.Optimize.TotalUnits, "")
	return t
}

// Figure2FromResult renders the shared-vs-partitioned per-entity miss
// chart from a study result.
func Figure2FromResult(r *scenario.Result) *report.BarChart {
	c := &report.BarChart{
		Title:  fmt.Sprintf("Figure 2 (%s): L2 misses per entity, shared vs best partitioned", r.Shared.App),
		ALabel: "shared",
		BLabel: "partitioned",
	}
	for _, e := range r.Shared.Entities {
		p := r.Partitioned.Entity(e.Name)
		if p == nil || (e.Misses == 0 && p.Misses == 0) {
			continue
		}
		c.Pairs = append(c.Pairs, report.BarPair{Label: e.Name, A: float64(e.Misses), B: float64(p.Misses)})
	}
	sort.Slice(c.Pairs, func(i, j int) bool { return c.Pairs[i].A > c.Pairs[j].A })
	return c
}

// Figure3FromResult renders the expected-vs-simulated chart plus the
// compositionality analysis from a study result.
func Figure3FromResult(r *scenario.Result) (*report.BarChart, *scenario.ComposeSummary) {
	c := &report.BarChart{
		Title: fmt.Sprintf("Figure 3 (%s): expected vs simulated misses per entity (max rel diff %.2f%%)",
			r.Shared.App, r.Compose.MaxRelDiff*100),
		ALabel: "expected",
		BLabel: "simulated",
	}
	for _, e := range r.Compose.Entries {
		if e.Expected == 0 && e.Simulated == 0 {
			continue
		}
		c.Pairs = append(c.Pairs, report.BarPair{Label: e.Name, A: e.Expected, B: float64(e.Simulated)})
	}
	sort.Slice(c.Pairs, func(i, j int) bool { return c.Pairs[i].A > c.Pairs[j].A })
	return c, r.Compose
}

// HeadlineFromResults assembles the section 5 headline table from the
// two application studies plus the 1 MB shared-L2 MPEG-2 run.
func HeadlineFromResults(app1, app2, big *scenario.Result) (*report.Table, []HeadlineRow) {
	t := &report.Table{
		Title: "Headline (paper: 5x / 6.5x fewer misses; 9.46->2.21% / 5.1->0.8% miss rate; CPI 1.4->1.1 / ~1.75->~1.65)",
		Headers: []string{"app", "shared miss", "part miss", "ratio",
			"shared rate", "part rate", "shared CPI", "part CPI", "maxRelDiff", "energy gain"},
	}
	var rows []HeadlineRow
	for _, s := range []*scenario.Result{app1, app2} {
		r := HeadlineRow{
			App:          s.Shared.App,
			SharedMiss:   s.Shared.TotalMisses,
			PartMiss:     s.Partitioned.TotalMisses,
			Ratio:        s.MissRatio(),
			SharedRate:   s.Shared.L2MissRate,
			PartRate:     s.Partitioned.L2MissRate,
			SharedCPI:    s.Shared.CPIMean,
			PartCPI:      s.Partitioned.CPIMean,
			MaxRelDiff:   s.Compose.MaxRelDiff,
			SharedEnergy: s.Shared.Energy,
			PartEnergy:   s.Partitioned.Energy,
		}
		rows = append(rows, r)
		t.AddRow(r.App, r.SharedMiss, r.PartMiss, r.Ratio, r.SharedRate, r.PartRate,
			r.SharedCPI, r.PartCPI, r.MaxRelDiff,
			fmt.Sprintf("%.1f%%", (1-r.PartEnergy/r.SharedEnergy)*100))
	}
	rows = append(rows, HeadlineRow{
		App:        "mpeg2 @1MB shared",
		SharedMiss: big.Shared.TotalMisses,
		SharedRate: big.Shared.L2MissRate,
		SharedCPI:  big.Shared.CPIMean,
	})
	t.AddRow("mpeg2 @1MB shared", big.Shared.TotalMisses, "-", "-",
		big.Shared.L2MissRate, "-", big.Shared.CPIMean, "-", "-", "-")
	return t, rows
}

// sumEntitySummaries totals the named entities' misses in a run summary.
func sumEntitySummaries(run *scenario.RunSummary, names []string) uint64 {
	var t uint64
	for _, n := range names {
		if e := run.Entity(n); e != nil {
			t += e.Misses
		}
	}
	return t
}

// CompositionFromResults derives experiment X1 from the solo-decoder
// study (run under the full application's allocation) and the full
// application study.
func CompositionFromResults(solo, full *scenario.Result) (*CompositionResult, *report.Table) {
	res := &CompositionResult{
		SharedSolo:  sumEntitySummaries(solo.Shared, jpeg1Entities),
		SharedCorun: sumEntitySummaries(full.Shared, jpeg1Entities),
		PartSolo:    sumEntitySummaries(solo.Partitioned, jpeg1Entities),
		PartCorun:   sumEntitySummaries(full.Partitioned, jpeg1Entities),
	}
	t := &report.Table{
		Title:   "X1: jpeg1 task misses, alone vs co-scheduled (compositionality stress)",
		Headers: []string{"cache", "alone", "co-scheduled", "shift"},
	}
	t.AddRow("shared", res.SharedSolo, res.SharedCorun, fmt.Sprintf("%.1f%%", res.SharedShift()*100))
	t.AddRow("partitioned", res.PartSolo, res.PartCorun, fmt.Sprintf("%.1f%%", res.PartShift()*100))
	return res, t
}

// sumExpected totals the optimizer's expected misses.
func sumExpected(o *scenario.OptimizeSummary) float64 {
	var t float64
	for _, v := range o.Expected {
		t += v
	}
	return t
}

// GranularityFromResults derives experiment X2 from the fine-grained
// optimize leg and the column-caching leg (whose failure is the
// infeasibility the paper points out).
func GranularityFromResults(cfg Config, fine, coarse *scenario.Result) *report.Table {
	geom := cfg.Platform.PartitionGeom()
	totalUnits := geom.Sets / rtos.AllocUnit
	wayUnits := totalUnits / geom.Ways
	if coarse.Error != "" {
		t := &report.Table{
			Title:   "X2: allocation granularity (set partitioning vs column caching)",
			Headers: []string{"scheme", "result"},
		}
		t.AddRow("set partitioning (8-set units)", fmt.Sprintf("feasible, %d units, %.0f expected misses", fine.Optimize.TotalUnits, sumExpected(fine.Optimize)))
		t.AddRow(fmt.Sprintf("column caching (%d-unit ways)", wayUnits), "infeasible: more entities than ways")
		return t
	}
	t := &report.Table{
		Title:   "X2: allocation granularity (set partitioning vs column caching)",
		Headers: []string{"scheme", "total units", "expected misses"},
	}
	t.AddRow("set partitioning (8-set units)", fine.Optimize.TotalUnits, sumExpected(fine.Optimize))
	t.AddRow(fmt.Sprintf("column caching (%d-unit ways)", wayUnits), coarse.Optimize.TotalUnits, sumExpected(coarse.Optimize))
	return t
}

// SplitFromResults derives experiment X4 from the task-unified and
// split-i/d studies.
func SplitFromResults(unified, split *scenario.Result) *report.Table {
	t := &report.Table{
		Title:   "X4: task-unified vs split instruction/data partitions (section 4.2 variant)",
		Headers: []string{"organization", "entities", "alloc units", "L2 misses", "max rel diff"},
	}
	t.AddRow("shared baseline", "-", "-", unified.Shared.TotalMisses, "-")
	t.AddRow("partitioned, task-unified", len(unified.Partitioned.Entities),
		unified.Optimize.TotalUnits, unified.Partitioned.TotalMisses,
		fmt.Sprintf("%.3f%%", unified.Compose.MaxRelDiff*100))
	t.AddRow("partitioned, split i/d", len(split.Partitioned.Entities),
		split.Optimize.TotalUnits, split.Partitioned.TotalMisses,
		fmt.Sprintf("%.3f%%", split.Compose.MaxRelDiff*100))
	return t
}

// runShift returns the largest per-entity miss shift between two runs,
// normalized by the first run's total misses (the X5 metric).
func runShift(a, b *scenario.RunSummary) float64 {
	total := float64(a.TotalMisses)
	if total == 0 {
		return 0
	}
	worst := 0.0
	for _, e := range a.Entities {
		o := b.Entity(e.Name)
		if o == nil {
			continue
		}
		d := float64(e.Misses) - float64(o.Misses)
		if d < 0 {
			d = -d
		}
		if d/total > worst {
			worst = d / total
		}
	}
	return worst
}

// MigrationFromResults derives experiment X5 from the static study and
// the migrating study.
func MigrationFromResults(static, migrating *scenario.Result) *report.Table {
	t := &report.Table{
		Title:   "X5: schedule sensitivity — static assignment vs task migration",
		Headers: []string{"cache", "static misses", "migrating misses", "max entity shift"},
	}
	t.AddRow("shared", static.Shared.TotalMisses, migrating.Shared.TotalMisses,
		fmt.Sprintf("%.2f%%", runShift(static.Shared, migrating.Shared)*100))
	t.AddRow("partitioned", static.Partitioned.TotalMisses, migrating.Partitioned.TotalMisses,
		fmt.Sprintf("%.2f%%", runShift(static.Partitioned, migrating.Partitioned)*100))
	return t
}

// AssignmentFromResult derives experiment X3 (the section 3.1 assignment
// model) from a study result's measured task times.
func AssignmentFromResult(r *scenario.Result, numCPUs int) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("X3 (%s): task-to-processor assignment (section 3.1 model)", r.Partitioned.App),
		Headers: []string{"assignment", "makespan (cycles)", "throughput (runs/Mcycle)"},
	}
	cycles := r.Partitioned.TaskCycles
	used := core.Assignment{}
	for n, c := range r.Partitioned.TaskCPU {
		used[n] = c
	}
	addRow := func(name string, a core.Assignment) {
		loads, err := core.ProcessorLoads(cycles, a, numCPUs)
		if err != nil {
			t.AddRow(name, "error", err.Error())
			return
		}
		mk := core.Makespan(loads)
		t.AddRow(name, mk, core.Throughput(mk))
	}
	addRow("static (as run)", used)
	lpt := core.AssignLPT(cycles, numCPUs)
	addRow("LPT", lpt)
	addRow("LPT+local search", core.AssignLocalSearch(cycles, numCPUs, lpt))
	if ex, err := core.AssignExhaustive(cycles, numCPUs); err == nil {
		addRow("exhaustive optimum", ex)
	}
	return t
}

// RenderResult renders an arbitrary scenario result for the terminal —
// the human-readable shape of `compmem run -scenario file.json`.
func RenderResult(r *scenario.Result) string {
	var b strings.Builder
	name := r.Scenario.Name
	if name == "" {
		name = r.Scenario.Workload
	}
	fmt.Fprintf(&b, "scenario %s: workload %s, %s scale, partition %s (key %s)\n",
		name, r.Scenario.Workload, r.Scenario.Scale, r.Scenario.Partition, r.Key)
	if r.Error != "" {
		fmt.Fprintf(&b, "  error: %s\n", r.Error)
		return b.String()
	}
	runLine := func(label string, run *scenario.RunSummary) {
		fmt.Fprintf(&b, "%-12s %10d L2 misses, miss rate %.4f, CPI %.3f, energy %.4g\n",
			label, run.TotalMisses, run.L2MissRate, run.CPIMean, run.Energy)
	}
	if r.Shared != nil {
		runLine("shared:", r.Shared)
	}
	if r.Partitioned != nil {
		runLine("partitioned:", r.Partitioned)
		if ratio := r.MissRatio(); ratio != 0 {
			fmt.Fprintf(&b, "%-12s %10.2fx fewer misses than shared\n", "ratio:", ratio)
		}
	}
	if r.Compose != nil {
		fmt.Fprintf(&b, "compositional at the paper's 2%% threshold: %v (max %.3f%%, mean %.3f%%)\n",
			r.Compose.Compositional(0.02), r.Compose.MaxRelDiff*100, r.Compose.MeanRelDiff*100)
	}
	if r.Optimize != nil {
		if r.Partitioned != nil {
			b.WriteString(AllocationTableFromResult(r, fmt.Sprintf("Allocated L2 units (%s, %s solver, budget %d)",
				r.Scenario.Workload, r.Optimize.Solver, r.Optimize.Budget)).String())
		} else {
			t := &report.Table{
				Title:   fmt.Sprintf("Allocated L2 units (%s, %s solver, budget %d)", r.Scenario.Workload, r.Optimize.Solver, r.Optimize.Budget),
				Headers: []string{"entity", "alloc units", "expected misses"},
			}
			names := make([]string, 0, len(r.Optimize.Allocation))
			for n := range r.Optimize.Allocation {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				t.AddRow(n, r.Optimize.Allocation[n], r.Optimize.Expected[n])
			}
			t.AddRow("TOTAL", r.Optimize.TotalUnits, "")
			b.WriteString(t.String())
		}
	}
	if len(r.Curves) > 0 {
		b.WriteString(CurvesText(r.Scenario.Workload, r.Curves))
	}
	return b.String()
}

// CurvesText dumps the per-entity miss curves m_i(z_p), the raw input of
// the section 3.2 optimization, in the CLI's curves format.
func CurvesText(app string, curves []scenario.Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "miss curves m_i(z) for %s (misses at 1..128 units):\n", app)
	for _, c := range curves {
		if c.Accesses == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-14s acc=%8.0f  ", c.Entity, c.Accesses)
		for k, m := range c.Misses {
			fmt.Fprintf(&b, "%d:%.0f ", c.Sizes[k], m)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
