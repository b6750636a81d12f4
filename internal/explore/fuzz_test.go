package explore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// FuzzParse hardens exploration spec decoding: Parse never panics, and
// an accepted spec survives its canonical encoding — the spec file a
// checkpoint directory carries, re-read without lookups on resume —
// with its fingerprint unchanged, so a resume always recognizes its own
// checkpoint.
func FuzzParse(f *testing.F) {
	raw, err := os.ReadFile("../../examples/scenarios/explore-l2-grid.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(specJSON))
	f.Add([]byte(`{"sweep":"paper-grid","strategy":{"seed":3,"rungs":[1,2],"samples":2}}`))
	f.Add([]byte(`{"name":"deep","sweep":{"base":{"base":"l3-shared","partition":"shared"},"axes":[{"field":"platform.hierarchy.l3.kb","values":[512,1024]}]}}`))
	cfg := testConfig()
	lookupBase := func(name string) (scenario.Scenario, bool) { return experiments.BuiltinScenario(cfg, name) }
	lookupSweep := func(name string) (sweep.Sweep, bool) { return experiments.BuiltinSweep(cfg, name) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		ex, err := Parse(raw, lookupBase, lookupSweep)
		if err != nil {
			return
		}
		fp, err := ex.Fingerprint()
		if err != nil {
			t.Fatalf("accepted spec has no fingerprint: %v", err)
		}
		canon, err := ex.SpecJSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(canon, nil, nil)
		if err != nil {
			t.Fatalf("canonical spec does not re-parse: %v\n%s", err, canon)
		}
		if fp2, err := again.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("fingerprint changed across the canonical encoding: %s vs %s (%v)", fp2, fp, err)
		}
	})
}

// FuzzDecodeCheckpoint hardens the resume path against arbitrary
// checkpoint bytes: decodeCheckpoint never panics, and every checkpoint
// it accepts visits distinct points inside the space.
func FuzzDecodeCheckpoint(f *testing.F) {
	ex := Explore{Name: "fuzz", Sweep: paperGrid(f)}
	fp, err := ex.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	sp, err := ex.Sweep.Index()
	if err != nil {
		f.Fatal(err)
	}
	total := sp.Total()
	// Seed with the checkpoint a real two-point run writes.
	dir := f.TempDir()
	rn := scenario.NewRunner(2)
	_, err = Run(context.Background(), rn, ex, Options{CheckpointDir: dir, Budget: 2}, nil)
	rn.Close()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"schema_version":1,"fingerprint":"` + fp + `","round":1,"radius":1,"quiet":0,"visited":[{"index":3,"coords":null,"round":0},{"index":3,"coords":null,"round":0}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err := decodeCheckpoint(raw, fp, total)
		if err != nil {
			return
		}
		seen := make(map[int]bool, len(cp.Visited))
		for _, rec := range cp.Visited {
			if rec.Index < 0 || rec.Index >= total || seen[rec.Index] {
				t.Fatalf("accepted checkpoint visits point %d of a %d-point space (repeat: %v)", rec.Index, total, seen[rec.Index])
			}
			seen[rec.Index] = true
		}
	})
}
