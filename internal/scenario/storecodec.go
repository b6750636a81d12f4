package scenario

import (
	"encoding/json"
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/tracefile"
)

// Stage results are persisted as versioned documents: a small envelope
// naming the stage kind and wire version around the stage value's
// canonical JSON. Documents exist only for the durable store — the memo
// holds live values — and a result computed by one process reloads
// byte-identical in another (encoding/json round-trips float64 exactly
// and orders map keys deterministically).
//
// StageDocVersion is bumped on any incompatible change to the stage
// value types below; documents of another version decode with an error,
// which the runner treats as a miss — old records are recomputed and
// overwritten, never misread.
const StageDocVersion = 1

// stageDoc is the persisted stage-result envelope.
type stageDoc struct {
	Version int             `json:"v"`
	Kind    string          `json:"kind"`
	Data    json.RawMessage `json:"data"`
}

// stageCodec is one stage kind's row of the codec table: encode renders
// the live value as the document's data field, decode rebuilds the live
// value from it, and size estimates the heap bytes the live value holds,
// which the memo charges against its budget.
type stageCodec struct {
	encode func(v any) ([]byte, error)
	decode func(data []byte) (any, error)
	size   func(v any) int
}

// codecs maps each stage kind to its codec. The JSON kinds hold
// []profile.Curve, *core.OptimizeResult and *core.Result. A trace is
// persisted as its own self-validating CMTR container (base64 inside the
// JSON envelope), not as a JSON view of the struct — the wire golden in
// internal/tracefile pins it.
var codecs = map[string]stageCodec{
	stageProfile: {
		encode: json.Marshal,
		decode: func(data []byte) (any, error) {
			var curves []profile.Curve
			err := json.Unmarshal(data, &curves)
			return curves, err
		},
		size: func(v any) int { return curvesSize(v.([]profile.Curve)) },
	},
	stageOptimize: {
		encode: json.Marshal,
		decode: decodeJSON[core.OptimizeResult],
		size:   func(v any) int { return optimizeSize(v.(*core.OptimizeResult)) },
	},
	stageRun: {
		encode: json.Marshal,
		decode: decodeJSON[core.Result],
		size:   func(v any) int { return runSize(v.(*core.Result)) },
	},
	stageTrace: {
		encode: func(v any) ([]byte, error) { return json.Marshal(v.(*tracefile.Trace).Bytes()) },
		decode: func(data []byte) (any, error) {
			// The injection point makes corrupt-trace handling provable: an
			// injected error here must read as a miss and recapture, exactly
			// like a real CRC failure below.
			if err := faults.Point(faults.SiteTraceRead); err != nil {
				return nil, err
			}
			var raw []byte
			if err := json.Unmarshal(data, &raw); err != nil {
				return nil, err
			}
			return tracefile.Decode(raw)
		},
		size: func(v any) int { return v.(*tracefile.Trace).Size() },
	},
}

// decodeJSON decodes a stage value into a fresh T.
func decodeJSON[T any](data []byte) (any, error) {
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// encodeStage serializes one completed stage value into its document.
func encodeStage(kind string, v any) ([]byte, error) {
	data, err := codecs[kind].encode(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	doc, err := json.Marshal(stageDoc{Version: StageDocVersion, Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	return doc, nil
}

// decodeStage deserializes a stage document back into the live value
// the memo serves. The kind and version must match: a version or kind
// mismatch is an error the runner treats as a cache miss, not as
// corruption (the store layer already verified the bytes' integrity).
func decodeStage(kind string, b []byte) (any, error) {
	c, ok := codecs[kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown stage kind %q", kind)
	}
	var doc stageDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
	}
	if doc.Version != StageDocVersion {
		return nil, fmt.Errorf("scenario: %s stage document version %d (want %d)", kind, doc.Version, StageDocVersion)
	}
	if doc.Kind != kind {
		return nil, fmt.Errorf("scenario: stage document is %q, not %q", doc.Kind, kind)
	}
	v, err := c.decode(doc.Data)
	if err != nil {
		return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
	}
	return v, nil
}

// The size estimates count what a live value holds on the heap: its
// structs, slice and string payloads, and map entries. mapEntryBytes
// approximates a map entry's share of its buckets beyond the key and
// value themselves.
const mapEntryBytes = 16

func curvesSize(curves []profile.Curve) int {
	n := len(curves) * int(unsafe.Sizeof(profile.Curve{}))
	for _, c := range curves {
		n += len(c.Entity) + 8*(len(c.Sizes)+len(c.Misses))
	}
	return n
}

func optimizeSize(o *core.OptimizeResult) int {
	return int(unsafe.Sizeof(*o)) + mapSize(o.Allocation) + curvesSize(o.Curves) + mapSize(o.Expected)
}

func runSize(r *core.Result) int {
	n := int(unsafe.Sizeof(*r)) + len(r.App) + mapSize(r.TaskCycles) + mapSize(r.TaskCPU)
	if r.Platform != nil {
		n += int(unsafe.Sizeof(*r.Platform)) + 8*len(r.Platform.CPIs)
	}
	for _, e := range r.Entities {
		n += int(unsafe.Sizeof(e)) + len(e.Name)
	}
	return n
}

// resultSize counts a result entry's sections in full, including the
// maps and slices they share with stage values, so the budget stays an
// upper bound on the bytes the memo holds.
func resultSize(r *Result) int {
	n := int(unsafe.Sizeof(*r)) + runSummarySize(r.Shared) + runSummarySize(r.Partitioned)
	if o := r.Optimize; o != nil {
		n += int(unsafe.Sizeof(*o)) + mapSize(o.Allocation) + mapSize(o.Expected)
	}
	if c := r.Compose; c != nil {
		n += int(unsafe.Sizeof(*c))
		for _, e := range c.Entries {
			n += int(unsafe.Sizeof(e)) + len(e.Name)
		}
	}
	for _, c := range r.Curves {
		n += int(unsafe.Sizeof(c)) + len(c.Entity) + 8*(len(c.Sizes)+len(c.Misses))
	}
	return n
}

// PreparedSize estimates the heap bytes of a prepared result (see
// Runner.Prepare): the Result, its key and its normalized spec in full.
// Memory-only memo entries that hold prepared scenarios, such as a
// sweep plan, charge it to the memo's budget.
func PreparedSize(r *Result) int {
	return int(unsafe.Sizeof(*r)) + len(r.Key) + len(r.Error) + specSize(r.Scenario)
}

// specSize counts what a spec holds beyond its own struct: strings,
// candidate sizes and the platform spec with every field it points to.
func specSize(s Scenario) int {
	n := len(s.Name) + len(s.Base) + len(s.Workload) + len(s.Scale) + len(s.Partition) + len(s.Solver) +
		len(s.ProfileEngine) + len(s.ProfileLevel) + len(s.ExecEngine) + len(s.AllocWorkload) + len(s.Trace) +
		8*len(s.Sizes)
	p := s.Platform
	if p == nil {
		return n
	}
	n += int(unsafe.Sizeof(*p)) + ptrSize(p.NumCPUs) + ptrSize(p.BaseCPI) +
		cacheSpecSize(p.L1) + cacheSpecSize(p.L2) + ptrSize(p.L1HitLatency) + ptrSize(p.L2HitLatency) +
		ptrSize(p.Bus.TransferCycles) + ptrSize(p.Bus.MemLatency) + ptrSize(p.Bus.Banks) + ptrSize(p.Bus.LineSize) +
		ptrSize(p.Sched.Quantum) + ptrSize(p.Sched.SwitchCost) + ptrSize(p.SwitchTouches)
	if h := p.Hierarchy; h != nil {
		n += int(unsafe.Sizeof(*h))
		for _, l := range h.Levels {
			n += int(unsafe.Sizeof(l)) + len(l.Name) + len(l.Scope) + ptrSize(l.Sets) + ptrSize(l.Ways) +
				ptrSize(l.LineSize) + ptrSize(l.HitLatency) + ptrSize(l.Partition)
			for cpu, c := range l.PerCPU {
				n += int(unsafe.Sizeof(cpu)+unsafe.Sizeof(c)) + len(cpu) + mapEntryBytes + cacheSpecSize(c)
			}
		}
	}
	return n
}

func cacheSpecSize(c CacheSpec) int {
	return ptrSize(c.Sets) + ptrSize(c.Ways) + ptrSize(c.LineSize)
}

// ptrSize is the size of what an optional spec field points to.
func ptrSize[T any](p *T) int {
	if p == nil {
		return 0
	}
	return int(unsafe.Sizeof(*p))
}

func runSummarySize(s *RunSummary) int {
	if s == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*s)) + len(s.App) + mapSize(s.TaskCycles) + mapSize(s.TaskCPU)
	for _, e := range s.Entities {
		n += int(unsafe.Sizeof(e)) + len(e.Name)
	}
	return n
}

func mapSize[V any](m map[string]V) int {
	var v V
	n := 0
	for k := range m {
		n += int(unsafe.Sizeof(k)+unsafe.Sizeof(v)) + len(k) + mapEntryBytes
	}
	return n
}
