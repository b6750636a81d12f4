package scenario

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// stageKinds lists every stage kind, the codec table's rows.
var stageKinds = []string{stageProfile, stageOptimize, stageRun, stageTrace}

// FuzzDecodeStage hardens the stage-document decoder of every kind
// against arbitrary bytes: a document either fails to decode with an
// error or decodes to a value whose encoding is a fixed point — it
// decodes again and re-encodes byte-identically, so a document written
// by the encoder reads back as exactly the bytes on disk. The corpus is
// seeded with the envelope golden and a document of every kind,
// including the golden trace container.
func FuzzDecodeStage(f *testing.F) {
	f.Add([]byte(`{"v":1,"kind":"profile","data":[1,2]}`))
	f.Add([]byte(`{"v":1,"kind":"trace","data":null}`))
	curves := []profile.Curve{{Entity: "FrontEnd1", Sizes: []int{1, 2, 4}, Misses: []float64{4608, 4423.5, 1003}, Accesses: 4608}}
	values := map[string]any{
		stageProfile:  curves,
		stageOptimize: &core.OptimizeResult{Allocation: core.Allocation{"FrontEnd1": 4}, Curves: curves, Expected: map[string]float64{"FrontEnd1": 4423.5}, Budget: 32},
		stageRun:      &core.Result{App: "jpeg1", Entities: []core.EntityResult{{Name: "FrontEnd1", Accesses: 9, Misses: 3}}, TaskCycles: map[string]uint64{"FrontEnd1": 77}},
		stageTrace:    goldenTrace(f),
	}
	for _, kind := range stageKinds {
		doc, err := encodeStage(kind, values[kind])
		if err != nil {
			f.Fatal(err)
		}
		// A document the encoder wrote reads back as exactly its bytes.
		v, err := decodeStage(kind, doc)
		if err != nil {
			f.Fatal(err)
		}
		if again, err := encodeStage(kind, v); err != nil || !bytes.Equal(again, doc) {
			f.Fatalf("%s: the document does not re-encode byte-identically: %s", kind, again)
		}
		f.Add(doc)
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		for _, kind := range stageKinds {
			v, err := decodeStage(kind, doc)
			if err != nil {
				continue
			}
			canon, err := encodeStage(kind, v)
			if err != nil {
				t.Fatalf("%s: a decoded value does not encode: %v", kind, err)
			}
			again, err := decodeStage(kind, canon)
			if err != nil {
				t.Fatalf("%s: a re-encoded document does not decode: %v", kind, err)
			}
			back, err := encodeStage(kind, again)
			if err != nil || !bytes.Equal(back, canon) {
				t.Fatalf("%s: the document does not re-encode byte-identically:\n%s\nvs\n%s", kind, canon, back)
			}
		}
	})
}
