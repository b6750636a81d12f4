package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/tracefile"
)

// Stage results are persisted only for the durable store — the memo
// holds live values. A trace record is the trace's own CMTR container,
// which checks itself (magic, version, CRC-32C, full validation; the
// wire golden in internal/tracefile pins it). Every other kind is a
// versioned document: a small envelope naming the stage kind and wire
// version around the stage value's canonical JSON, which reloads
// byte-identical in another process (encoding/json round-trips float64
// exactly and orders map keys deterministically).
//
// StageDocVersion is bumped on any incompatible change to the JSON stage
// value types below; documents of another version decode with an error,
// which the runner treats as a miss — old records are recomputed and
// overwritten, never misread. A trace record that is not a container,
// such as the JSON document earlier builds wrote, fails the container's
// magic check and is recaptured the same way.
const StageDocVersion = 1

// stageDoc is the persisted envelope of the JSON stage kinds, which
// hold []profile.Curve, *core.OptimizeResult and *core.Result.
type stageDoc struct {
	Version int             `json:"v"`
	Kind    string          `json:"kind"`
	Data    json.RawMessage `json:"data"`
}

// exactLen copies s into a slice whose capacity is its length.
func exactLen[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// encodeStage serializes one completed stage value into its record: a
// trace's container, shared rather than copied, or a JSON kind's
// document.
func encodeStage(kind string, v any) ([]byte, error) {
	if kind == stageTrace {
		return v.(*tracefile.Trace).Bytes(), nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	doc, err := json.Marshal(stageDoc{Version: StageDocVersion, Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	return doc, nil
}

// decodeStage deserializes a stage record back into the live value the
// memo serves; a decoded trace aliases b. A document's kind and version
// must match: a mismatch is an error the runner treats as a cache miss,
// not as corruption (the store layer already verified the bytes'
// integrity).
func decodeStage(kind string, b []byte) (any, error) {
	if kind == stageTrace {
		// The injection point makes corrupt-trace handling provable: an
		// injected error here must read as a miss and recapture, exactly
		// like a real CRC failure in Decode.
		if err := faults.Point(faults.SiteTraceRead); err != nil {
			return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
		}
		t, err := tracefile.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
		}
		return t, nil
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
	var (
		v   any
		err error
	)
	switch kind {
	case stageProfile:
		var curves []profile.Curve
		if err = json.Unmarshal(doc.Data, &curves); err == nil {
			// encoding/json grows every slice as it decodes, leaving up to
			// twice its length in spare capacity that a fresh value does
			// not hold; the memo keeps copies made at the exact lengths.
			curves = exactLen(curves)
			for i := range curves {
				curves[i].Sizes = exactLen(curves[i].Sizes)
				curves[i].Misses = exactLen(curves[i].Misses)
			}
			v = curves
		}
	case stageOptimize:
		o := new(core.OptimizeResult)
		v, err = o, json.Unmarshal(doc.Data, o)
	case stageRun:
		res := new(core.Result)
		v, err = res, json.Unmarshal(doc.Data, res)
	default:
		return nil, fmt.Errorf("scenario: unknown stage kind %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
	}
	return v, nil
}
