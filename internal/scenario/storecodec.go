package scenario

import (
	"encoding/json"
	"fmt"

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
// the live value as the document's data field, and decode rebuilds the
// live value from it.
type stageCodec struct {
	encode func(v any) ([]byte, error)
	decode func(data []byte) (any, error)
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
			if err := json.Unmarshal(data, &curves); err != nil {
				return nil, err
			}
			// encoding/json grows every slice as it decodes, leaving up to
			// twice its length in spare capacity that a fresh value does
			// not hold; the memo keeps copies made at the exact lengths.
			exact := exactLen(curves)
			for i := range exact {
				exact[i].Sizes = exactLen(exact[i].Sizes)
				exact[i].Misses = exactLen(exact[i].Misses)
			}
			return exact, nil
		},
	},
	stageOptimize: {
		encode: json.Marshal,
		decode: decodeJSON[core.OptimizeResult],
	},
	stageRun: {
		encode: json.Marshal,
		decode: decodeJSON[core.Result],
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
	},
}

// exactLen copies s into a slice whose capacity is its length.
func exactLen[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
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
