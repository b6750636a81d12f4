package sweep

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/scenario"
)

// fieldDef describes one sweepable scenario field: how to decode an
// axis value and set it on a spec. rangeable marks integer fields that
// accept an Axis.Range. target names the scenario path the field
// writes (defaults to the field name itself); two axes sharing a
// target would overwrite each other and are rejected by Validate — a
// legacy spelling targets the level path it names, and a kb axis its
// level's sets, so sweeping any aliased pair at once cannot silently
// mislabel the geometry.
type fieldDef struct {
	rangeable bool
	target    string
	apply     func(*scenario.Scenario, json.RawMessage) error
}

// field builds the fieldDef of a field whose axis values decode as T;
// set writes one decoded value. Integer fields (int, uint64) accept a
// Range. Every T is a scalar or a slice of scalars, so there are no
// fields to reject, and raw is one element of an already-parsed array,
// so it carries no trailing data: plain json.Unmarshal is as strict as
// scenario.DecodeStrict here without building a decoder per point.
func field[T any](set func(*scenario.Scenario, T) error) fieldDef {
	fd := fieldDef{apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("decoding value %s: %w", raw, err)
		}
		return set(s, v)
	}}
	switch any(*new(T)).(type) {
	case int, uint64:
		fd.rangeable = true
	}
	return fd
}

// fields is the static sweepable-field registry. Keys are the axis
// "field" spellings; dotted paths mirror the scenario spec's JSON
// nesting. Geometry axes are not listed: hierarchyField builds them
// from their level path.
var fields = map[string]fieldDef{
	"workload":          field(func(s *scenario.Scenario, v string) error { s.Workload = v; return nil }),
	"scale":             field(func(s *scenario.Scenario, v string) error { s.Scale = v; return nil }),
	"solver":            field(func(s *scenario.Scenario, v string) error { s.Solver = v; return nil }),
	"partition":         field(func(s *scenario.Scenario, v string) error { s.Partition = v; return nil }),
	"profile_engine":    field(func(s *scenario.Scenario, v string) error { s.ProfileEngine = v; return nil }),
	"profile_level":     field(func(s *scenario.Scenario, v string) error { s.ProfileLevel = v; return nil }),
	"exec_engine":       field(func(s *scenario.Scenario, v string) error { s.ExecEngine = v; return nil }),
	"alloc_workload":    field(func(s *scenario.Scenario, v string) error { s.AllocWorkload = v; return nil }),
	"migration":         field(func(s *scenario.Scenario, v bool) error { s.Migration = v; return nil }),
	"seed":              field(func(s *scenario.Scenario, v uint64) error { s.Seed = v; return nil }),
	"runs":              field(func(s *scenario.Scenario, v int) error { s.Runs = v; return nil }),
	"sizes":             field(func(s *scenario.Scenario, v []int) error { s.Sizes = v; return nil }),
	"platform.num_cpus": field(func(s *scenario.Scenario, v int) error { platformOf(s).NumCPUs = &v; return nil }),
	"platform.base_cpi": field(func(s *scenario.Scenario, v float64) error { platformOf(s).BaseCPI = &v; return nil }),
}

// legacy maps the two-level platform.l1/l2 spellings to the level
// paths they name: a legacy axis writes that level, exactly as its
// platform.hierarchy twin does. No other platform.l* spelling exists.
var legacy = map[string]string{
	"platform.l1.sets":        "platform.hierarchy.l1.sets",
	"platform.l1.ways":        "platform.hierarchy.l1.ways",
	"platform.l1.line_size":   "platform.hierarchy.l1.line_size",
	"platform.l2.sets":        "platform.hierarchy.l2.sets",
	"platform.l2.ways":        "platform.hierarchy.l2.ways",
	"platform.l2.line_size":   "platform.hierarchy.l2.line_size",
	"platform.l2.kb":          "platform.hierarchy.l2.kb",
	"platform.l2_hit_latency": "platform.hierarchy.l2.hit_latency",
}

// lookupField resolves an axis field name: the static registry first,
// then the geometry axes.
func lookupField(name string) (fieldDef, bool) {
	if fd, ok := fields[name]; ok {
		return fd, true
	}
	return hierarchyField(name)
}

// levelProp splits a geometry axis, platform.hierarchy.<level>.<prop>
// or a legacy spelling of one, into its hierarchy level and property.
// ok is false for non-geometry axes.
func levelProp(field string) (level, prop string, ok bool) {
	if path, isLegacy := legacy[field]; isLegacy {
		field = path
	}
	rest, ok := strings.CutPrefix(field, "platform.hierarchy.")
	if !ok {
		return "", "", false
	}
	level, prop, ok = strings.Cut(rest, ".")
	if !ok || level == "" || prop == "" {
		return "", "", false
	}
	return level, prop, true
}

// platformOf gives an axis its own writable platform spec: points share
// the base scenario by value, but Platform is a pointer — without the
// copy every point of the sweep would scribble on the same geometry.
func platformOf(s *scenario.Scenario) *scenario.PlatformSpec {
	var p scenario.PlatformSpec
	if s.Platform != nil {
		p = *s.Platform
	}
	s.Platform = &p
	return s.Platform
}

// levelOf finds a named level of the spec's hierarchy block, first
// materializing the block fully explicit from the spec's implied
// topology (defaults, the block if any, and the l1/l2 alias overlays —
// which are then cleared, having been baked in: the aliases are the
// outermost overlay at materialization time, so leaving them set would
// silently override the axis's writes). The block's level slice is
// fresh — points never share it.
func levelOf(p *scenario.PlatformSpec, name string) (*scenario.LevelSpec, error) {
	pc, err := p.Config()
	if err != nil {
		return nil, err
	}
	p.Hierarchy = scenario.PlatformSpecOf(pc).Hierarchy
	p.L1, p.L2 = scenario.CacheSpec{}, scenario.CacheSpec{}
	p.L1HitLatency, p.L2HitLatency = nil, nil
	for i := range p.Hierarchy.Levels {
		if p.Hierarchy.Levels[i].Name == name {
			return &p.Hierarchy.Levels[i], nil
		}
	}
	return nil, fmt.Errorf("hierarchy has no level %q (levels: %v)", name, pc.Topology.LevelNames())
}

// levelField builds the fieldDef that sets one property of a level.
func levelField[T any](level string, set func(*scenario.LevelSpec, T)) fieldDef {
	return field(func(s *scenario.Scenario, v T) error {
		l, err := levelOf(platformOf(s), level)
		if err != nil {
			return err
		}
		set(l, v)
		return nil
	})
}

// hierarchyField builds the fieldDef of a geometry axis:
// platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}, or a
// legacy spelling of one. Its target is the level path it writes (a kb
// axis writes its level's sets).
func hierarchyField(name string) (fieldDef, bool) {
	level, prop, ok := levelProp(name)
	if !ok {
		return fieldDef{}, false
	}
	var fd fieldDef
	switch prop {
	case "sets":
		fd = levelField(level, func(l *scenario.LevelSpec, v int) { l.Sets = &v })
	case "ways":
		fd = levelField(level, func(l *scenario.LevelSpec, v int) { l.Ways = &v })
	case "line_size":
		fd = levelField(level, func(l *scenario.LevelSpec, v int) { l.LineSize = &v })
	case "hit_latency":
		fd = levelField(level, func(l *scenario.LevelSpec, v uint64) { l.HitLatency = &v })
	case "kb":
		fd = field(func(s *scenario.Scenario, kb int) error { return applyKB(s, level, kb) })
		prop = "sets"
	default:
		return fieldDef{}, false
	}
	fd.target = "platform.hierarchy." + level + "." + prop
	return fd, true
}

// applyKB sets a level's total capacity in KiB, deriving the set count
// from the level's effective associativity and line size (the defaults
// unless the base or an earlier axis overrode them) — the natural
// spelling of the paper's candidate-size exploration. Axes apply in
// declaration order, and Validate rejects a ways/line_size axis of the
// same level declared after its kb axis, so the derivation can never
// silently disagree with the label.
func applyKB(s *scenario.Scenario, level string, kb int) error {
	if kb <= 0 {
		return fmt.Errorf("%s capacity %d KiB not positive", level, kb)
	}
	l, err := levelOf(platformOf(s), level)
	if err != nil {
		return err
	}
	// levelOf materializes the block fully explicit, so the effective
	// geometry is right on the level spec.
	lineBytes := *l.Ways * *l.LineSize
	bytes := kb << 10
	if lineBytes <= 0 || bytes%lineBytes != 0 {
		return fmt.Errorf("%s capacity %d KiB not divisible by ways×line_size = %d bytes", level, kb, lineBytes)
	}
	sets := bytes / lineBytes
	l.Sets = &sets
	return nil
}

// Fields lists the sweepable field names, sorted, with the dynamic
// level-path pattern appended.
func Fields() []string {
	names := slices.AppendSeq(slices.Collect(maps.Keys(fields)), maps.Keys(legacy))
	slices.Sort(names)
	return append(names, "platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}")
}
