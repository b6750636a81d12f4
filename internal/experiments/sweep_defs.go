package experiments

import (
	"encoding/json"
	"sort"
	"strconv"

	"repro/internal/sweep"
)

// SweepPaperGrid is the built-in sweep reproducing the paper's
// candidate-size exploration as one command: the full 2×JPEG + Canny
// study swept over the L2 capacity ladder around the section 5 design
// point, crossed with migration and the solver and execution-engine
// spellings. The solver and exec axes only spell twins, which normalize
// to one spec and share every stage, and migration shares the profile
// and optimize stages — the 32-point grid simulates each geometry's
// profile exactly once.
const SweepPaperGrid = "paper-grid"

// rawInts, rawBools, rawStrings build literal axis values.
func rawInts(vs ...int) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(strconv.Itoa(v))
	}
	return out
}

func rawBools(vs ...bool) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(strconv.FormatBool(v))
	}
	return out
}

func rawStrings(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

// BuiltinSweeps returns the named built-in sweep definitions for the
// given harness configuration.
func BuiltinSweeps(cfg Config) map[string]sweep.Sweep {
	base := baseSpec(cfg)
	base.Workload = "2jpeg+canny"
	return map[string]sweep.Sweep{
		SweepPaperGrid: {
			Name: SweepPaperGrid,
			Base: base,
			Axes: []sweep.Axis{
				{Name: "l2_kb", Field: "platform.l2.kb", Values: rawInts(128, 256, 512, 1024)},
				{Name: "migration", Field: "migration", Values: rawBools(false, true)},
				{Name: "solver", Field: "solver", Values: rawStrings("mckp", "ilp")},
				{Name: "exec", Field: "exec_engine", Values: rawStrings("merged", "word")},
			},
			Pareto: []sweep.ParetoPair{
				{X: "l2_bytes", Y: "makespan"},
				{X: "l2_bytes", Y: "misses"},
				{X: "energy", Y: "makespan"},
			},
		},
	}
}

// BuiltinSweep resolves one built-in sweep by name.
func BuiltinSweep(cfg Config, name string) (sweep.Sweep, bool) {
	s, ok := BuiltinSweeps(cfg)[name]
	return s, ok
}

// BuiltinSweepNames lists the built-in sweep names, sorted.
func BuiltinSweepNames() []string {
	defs := BuiltinSweeps(Default())
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
