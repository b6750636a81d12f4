package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// stageKinds lists every stage kind decodeStage serves.
var stageKinds = []string{stageProfile, stageOptimize, stageRun, stageTrace}

// FuzzDecodeStage hardens the stage-record decoder of every kind
// against arbitrary bytes: a record either fails to decode with an
// error or decodes to a value whose encoding is a fixed point — it
// decodes again and re-encodes byte-identically, so a record written
// by the encoder reads back as exactly the bytes on disk. The corpus is
// seeded with the envelope golden, a document of every JSON kind, the
// golden trace container as the trace record, and the JSON document
// earlier builds wrote for a trace, which must no longer decode.
func FuzzDecodeStage(f *testing.F) {
	f.Add([]byte(`{"v":1,"kind":"profile","data":[1,2]}`))
	oldTrace := []byte(`{"v":1,"kind":"trace","data":null}`)
	if _, err := decodeStage(stageTrace, oldTrace); err == nil {
		f.Fatal("a JSON trace document decodes as a trace record")
	}
	f.Add(oldTrace)
	curves := []profile.Curve{{Entity: "FrontEnd1", Sizes: []int{1, 2, 4}, Misses: []float64{4608, 4423.5, 1003}, Accesses: 4608}}
	values := map[string]any{
		stageProfile:  curves,
		stageOptimize: &core.OptimizeResult{Allocation: core.Allocation{"FrontEnd1": 4}, Expected: map[string]float64{"FrontEnd1": 4423.5}, Budget: 32},
		stageRun:      &core.Result{App: "jpeg1", Entities: []core.EntityResult{{Name: "FrontEnd1", Accesses: 9, Misses: 3}}, TaskCycles: map[string]uint64{"FrontEnd1": 77}},
		stageTrace:    goldenTrace(f),
	}
	for _, kind := range stageKinds {
		doc, err := encodeStage(kind, values[kind])
		if err != nil {
			f.Fatal(err)
		}
		// A record the encoder wrote reads back as exactly its bytes.
		v, err := decodeStage(kind, doc)
		if err != nil {
			f.Fatal(err)
		}
		if again, err := encodeStage(kind, v); err != nil || !bytes.Equal(again, doc) {
			f.Fatalf("%s: the record does not re-encode byte-identically: %s", kind, again)
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

// addExampleSpecs seeds a corpus with the example spec documents.
func addExampleSpecs(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// FuzzNormalize hardens spec decoding and canonicalization against
// arbitrary bytes: Resolve then Normalize never panic, and a spec that
// normalizes is a fixed point — normalizing it again changes nothing and
// keeps its content key — with both engine fields and the solver on
// the production ones, and the trace mode cleared.
func FuzzNormalize(f *testing.F) {
	addExampleSpecs(f)
	f.Add([]byte(`{"base":"app","exec_engine":"word","profile_engine":"bank","solver":"ilp","sizes":[8,2]}`))
	f.Add([]byte(`{"workload":"mpeg2","platform":{"hierarchy":{"levels":[{"name":"l1"},{"name":"l2","per_cpu":{"1":{"ways":2}}},{"name":"l3","partition":true}]}}}`))
	f.Add([]byte(`{"base":"app","sizes":[64,1,64,2,1]}`))
	f.Add([]byte(`{"base":"app","sizes":[]}`))
	f.Add([]byte(`{"base":"app","trace":"live"}`))
	lookup := func(name string) (Scenario, bool) {
		return Scenario{Workload: "2jpeg+canny", Scale: "small"}, name == "app"
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Resolve(raw, lookup)
		if err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		if n.ExecEngine != "merged" || n.ProfileEngine != "stackdist" || n.Solver != "mckp" {
			t.Fatalf("engines or solver not normalized to production: exec %q, profile %q, solver %q", n.ExecEngine, n.ProfileEngine, n.Solver)
		}
		if n.Trace != "" {
			t.Fatalf("trace mode %q not normalized to replay", n.Trace)
		}
		for i := 1; i < len(n.Sizes); i++ {
			if n.Sizes[i] <= n.Sizes[i-1] {
				t.Fatalf("normalized sizes not strictly ascending: %v", n.Sizes)
			}
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("a normalized spec fails to normalize: %v", err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent:\n%+v\nvs\n%+v", again, n)
		}
		ks, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kn, err := n.Key(); err != nil || kn != ks {
			t.Fatalf("normalizing changed the content key: %s vs %s (%v)", kn, ks, err)
		}
	})
}

// FuzzSplitSpecs hardens the batch-document splitter: it never panics,
// and every spec it returns is exactly one JSON value.
func FuzzSplitSpecs(f *testing.F) {
	addExampleSpecs(f)
	f.Add([]byte(`{"scenarios":[{"workload":"mpeg2"},{"base":"app1"}]}`))
	f.Add([]byte(` [ {"workload":"mpeg2"} , 7 ] `))
	f.Fuzz(func(t *testing.T, raw []byte) {
		specs, err := SplitSpecs(raw)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("no error, but no specs")
		}
		for i, s := range specs {
			if !json.Valid(s) {
				t.Fatalf("spec %d is not one JSON value: %q", i, s)
			}
		}
	})
}
