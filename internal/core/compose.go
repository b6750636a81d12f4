package core

import "sort"

// ComposeEntry compares, for one entity, the misses the model expected
// (isolated-profile prediction at the allocated size) with the misses
// simulated in the full partitioned system — one bar pair of Figure 3.
type ComposeEntry struct {
	Name      string
	Expected  float64
	Simulated uint64
	// RelDiff is |expected − simulated| relative to the overall
	// simulated miss count, the paper's compositionality metric ("the
	// largest difference for a task between the expected and simulated
	// number of misses relative to the overall simulated number of
	// misses is 2%").
	RelDiff float64
}

// ComposeReport is the Figure 3 analysis for one application.
type ComposeReport struct {
	Entries        []ComposeEntry
	TotalSimulated uint64
	MaxRelDiff     float64
	MeanRelDiff    float64
}

// Compositional reports whether the system meets the paper's criterion at
// the given threshold (the paper observes 0.02).
func (r *ComposeReport) Compositional(threshold float64) bool {
	return r.MaxRelDiff <= threshold
}

// CompareExpectedSimulated builds the Figure 3 report from the optimizer's
// expectations and a partitioned-run result.
func CompareExpectedSimulated(expected map[string]float64, res *Result) *ComposeReport {
	rep := &ComposeReport{TotalSimulated: res.TotalMisses()}
	total := float64(rep.TotalSimulated)
	if total == 0 {
		total = 1
	}
	names := make([]string, 0, len(expected))
	for n := range expected {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		rep.Entries = make([]ComposeEntry, 0, len(names))
	}
	var sum float64
	for _, name := range names {
		er := res.Entity(name)
		if er == nil {
			continue
		}
		exp := expected[name]
		diff := exp - float64(er.Misses)
		if diff < 0 {
			diff = -diff
		}
		e := ComposeEntry{
			Name:      name,
			Expected:  exp,
			Simulated: er.Misses,
			RelDiff:   diff / total,
		}
		rep.Entries = append(rep.Entries, e)
		sum += e.RelDiff
		if e.RelDiff > rep.MaxRelDiff {
			rep.MaxRelDiff = e.RelDiff
		}
	}
	if len(rep.Entries) > 0 {
		rep.MeanRelDiff = sum / float64(len(rep.Entries))
	}
	return rep
}
