package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// fieldDef describes one sweepable scenario field: how to decode an
// axis value and set it on a spec. rangeable marks integer fields that
// accept an Axis.Range. target names the scenario path the field
// writes (defaults to the field name itself); two axes sharing a
// target would overwrite each other and are rejected by Validate —
// the legacy platform.l2.* spellings target the same hierarchy paths
// as platform.hierarchy.l2.*, and a kb axis targets its level's sets,
// so sweeping any aliased pair at once cannot silently mislabel the
// geometry.
type fieldDef struct {
	rangeable bool
	target    string
	apply     func(*scenario.Scenario, json.RawMessage) error
}

// lookupField resolves an axis field name: the static registry first,
// then the dynamic platform.hierarchy.<level>.<prop> paths.
func lookupField(name string) (fieldDef, bool) {
	if fd, ok := fields[name]; ok {
		return fd, true
	}
	return hierarchyField(name)
}

// targetOf resolves the scenario path an axis field writes.
func targetOf(field string) string {
	if fd, ok := lookupField(field); ok && fd.target != "" {
		return fd.target
	}
	return field
}

// levelProp splits a geometry axis into its hierarchy level and
// property, accepting both the legacy platform.l{1,2}.<prop> spelling
// and the generic platform.hierarchy.<level>.<prop> one. ok is false
// for non-geometry axes.
func levelProp(field string) (level, prop string, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(field, "platform.hierarchy."):
		rest = field[len("platform.hierarchy."):]
	case strings.HasPrefix(field, "platform.l"):
		rest = field[len("platform."):]
	default:
		return "", "", false
	}
	i := strings.IndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// decodeTo decodes one axis value into the field's Go type. Every
// target is a scalar or a slice of scalars, so there are no fields to
// reject, and raw is one element of an already-parsed array, so it
// carries no trailing data: plain json.Unmarshal is as strict as
// scenario.DecodeStrict here without building a decoder per point.
func decodeTo(raw json.RawMessage, v interface{}) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding value %s: %w", raw, err)
	}
	return nil
}

func stringField(set func(*scenario.Scenario, string)) fieldDef {
	return fieldDef{apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v string
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		set(s, v)
		return nil
	}}
}

func boolField(set func(*scenario.Scenario, bool)) fieldDef {
	return fieldDef{apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v bool
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		set(s, v)
		return nil
	}}
}

func intField(set func(*scenario.Scenario, int)) fieldDef {
	return fieldDef{rangeable: true, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v int
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		set(s, v)
		return nil
	}}
}

func uintField(set func(*scenario.Scenario, uint64)) fieldDef {
	return fieldDef{rangeable: true, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v uint64
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		set(s, v)
		return nil
	}}
}

func floatField(set func(*scenario.Scenario, float64)) fieldDef {
	return fieldDef{apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v float64
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		set(s, v)
		return nil
	}}
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

// hierarchyOf gives an axis a writable hierarchy block, materialized
// fully explicit from the spec's implied topology (defaults, the block
// if any, and the l1/l2 alias overlays — which are then cleared, having
// been baked in: the aliases are the outermost overlay at
// materialization time, so leaving them set would silently override the
// axis's writes). The block's level slice is fresh — points never share
// it.
func hierarchyOf(p *scenario.PlatformSpec) (*scenario.HierarchySpec, error) {
	pc, err := p.Config()
	if err != nil {
		return nil, err
	}
	full := scenario.PlatformSpecOf(pc)
	p.Hierarchy = full.Hierarchy
	p.L1, p.L2 = scenario.CacheSpec{}, scenario.CacheSpec{}
	p.L1HitLatency, p.L2HitLatency = nil, nil
	return p.Hierarchy, nil
}

// levelOf finds a named level in the (materialized) hierarchy block.
func levelOf(p *scenario.PlatformSpec, name string) (*scenario.LevelSpec, error) {
	hs, err := hierarchyOf(p)
	if err != nil {
		return nil, err
	}
	for i := range hs.Levels {
		if hs.Levels[i].Name == name {
			return &hs.Levels[i], nil
		}
	}
	names := make([]string, len(hs.Levels))
	for i := range hs.Levels {
		names[i] = hs.Levels[i].Name
	}
	return nil, fmt.Errorf("hierarchy has no level %q (levels: %v)", name, names)
}

// hierarchyField builds the dynamic fieldDef for a level-path axis:
// platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}.
// Legacy platform.l1/l2 axes resolve to the same targets through the
// static registry.
func hierarchyField(name string) (fieldDef, bool) {
	if !strings.HasPrefix(name, "platform.hierarchy.") {
		return fieldDef{}, false
	}
	level, prop, ok := levelProp(name)
	if !ok {
		return fieldDef{}, false
	}
	target := "platform.hierarchy." + level + "." + prop
	setInt := func(assign func(*scenario.LevelSpec, int)) fieldDef {
		return fieldDef{rangeable: true, target: target, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
			var v int
			if err := decodeTo(raw, &v); err != nil {
				return err
			}
			l, err := levelOf(platformOf(s), level)
			if err != nil {
				return err
			}
			assign(l, v)
			return nil
		}}
	}
	switch prop {
	case "sets":
		return setInt(func(l *scenario.LevelSpec, v int) { l.Sets = &v }), true
	case "ways":
		return setInt(func(l *scenario.LevelSpec, v int) { l.Ways = &v }), true
	case "line_size":
		return setInt(func(l *scenario.LevelSpec, v int) { l.LineSize = &v }), true
	case "hit_latency":
		return fieldDef{rangeable: true, target: target, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
			var v uint64
			if err := decodeTo(raw, &v); err != nil {
				return err
			}
			l, err := levelOf(platformOf(s), level)
			if err != nil {
				return err
			}
			l.HitLatency = &v
			return nil
		}}, true
	case "kb":
		return fieldDef{rangeable: true, target: "platform.hierarchy." + level + ".sets", apply: func(s *scenario.Scenario, raw json.RawMessage) error {
			var kb int
			if err := decodeTo(raw, &kb); err != nil {
				return err
			}
			return applyKB(s, level, kb)
		}}, true
	}
	return fieldDef{}, false
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
	p := platformOf(s)
	l, err := levelOf(p, level)
	if err != nil {
		return err
	}
	// levelOf materializes the block fully explicit (hierarchyOf), so
	// the effective geometry is right on the level spec.
	ways, line := *l.Ways, *l.LineSize
	lineBytes := ways * line
	bytes := kb << 10
	if lineBytes <= 0 || bytes%lineBytes != 0 {
		return fmt.Errorf("%s capacity %d KiB not divisible by ways×line_size = %d bytes", level, kb, lineBytes)
	}
	sets := bytes / lineBytes
	l.Sets = &sets
	return nil
}

// fields is the static sweepable-field registry. Keys are the axis
// "field" spellings; dotted paths mirror the scenario spec's JSON
// nesting. The platform.l1/l2 entries are the legacy aliases of the
// platform.hierarchy.* paths and share their targets.
var fields = map[string]fieldDef{
	"workload":       stringField(func(s *scenario.Scenario, v string) { s.Workload = v }),
	"scale":          stringField(func(s *scenario.Scenario, v string) { s.Scale = v }),
	"solver":         stringField(func(s *scenario.Scenario, v string) { s.Solver = v }),
	"partition":      stringField(func(s *scenario.Scenario, v string) { s.Partition = v }),
	"profile_engine": stringField(func(s *scenario.Scenario, v string) { s.ProfileEngine = v }),
	"profile_level":  stringField(func(s *scenario.Scenario, v string) { s.ProfileLevel = v }),
	"exec_engine":    stringField(func(s *scenario.Scenario, v string) { s.ExecEngine = v }),
	"alloc_workload": stringField(func(s *scenario.Scenario, v string) { s.AllocWorkload = v }),
	"migration":      boolField(func(s *scenario.Scenario, v bool) { s.Migration = v }),
	"seed":           uintField(func(s *scenario.Scenario, v uint64) { s.Seed = v }),
	"runs":           intField(func(s *scenario.Scenario, v int) { s.Runs = v }),
	"sizes": {apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v []int
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		s.Sizes = v
		return nil
	}},

	"platform.num_cpus": {rangeable: true, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v int
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		platformOf(s).NumCPUs = &v
		return nil
	}},
	"platform.base_cpi": floatField(func(s *scenario.Scenario, v float64) { platformOf(s).BaseCPI = &v }),

	"platform.l1.sets":      aliasLevelInt("l1", "sets", func(c *scenario.CacheSpec, v *int) { c.Sets = v }),
	"platform.l1.ways":      aliasLevelInt("l1", "ways", func(c *scenario.CacheSpec, v *int) { c.Ways = v }),
	"platform.l1.line_size": aliasLevelInt("l1", "line_size", func(c *scenario.CacheSpec, v *int) { c.LineSize = v }),
	"platform.l2.sets":      aliasLevelInt("l2", "sets", func(c *scenario.CacheSpec, v *int) { c.Sets = v }),
	"platform.l2.ways":      aliasLevelInt("l2", "ways", func(c *scenario.CacheSpec, v *int) { c.Ways = v }),
	"platform.l2.line_size": aliasLevelInt("l2", "line_size", func(c *scenario.CacheSpec, v *int) { c.LineSize = v }),
	"platform.l2_hit_latency": {rangeable: true, target: "platform.hierarchy.l2.hit_latency", apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v uint64
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		platformOf(s).L2HitLatency = &v
		return nil
	}},

	// platform.l2.kb is the legacy spelling of the shared level's
	// capacity; platform.hierarchy.<level>.kb generalizes it to any
	// level of any topology.
	"platform.l2.kb": {rangeable: true, target: "platform.hierarchy.l2.sets", apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var kb int
		if err := decodeTo(raw, &kb); err != nil {
			return err
		}
		return applyKB(s, "l2", kb)
	}},
}

// aliasLevelInt builds the legacy l1/l2 alias setter: it writes the
// legacy CacheSpec field (which overlays the equally-named hierarchy
// level) and shares the hierarchy path's conflict target.
func aliasLevelInt(level, prop string, set func(*scenario.CacheSpec, *int)) fieldDef {
	return fieldDef{rangeable: true, target: "platform.hierarchy." + level + "." + prop, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v int
		if err := decodeTo(raw, &v); err != nil {
			return err
		}
		p := platformOf(s)
		cs := &p.L1
		if level == "l2" {
			cs = &p.L2
		}
		set(cs, &v)
		return nil
	}}
}

// Fields lists the sweepable field names, sorted, with the dynamic
// level-path pattern appended.
func Fields() []string {
	names := make([]string, 0, len(fields)+1)
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, "platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}")
}
