package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
)

// TestPaperShape is the reproduction guard: it runs the headline command
// (both applications plus the 1 MB shared-L2 MPEG-2 variant) at paper
// scale and asserts the qualitative results of section 5 — the
// partitioned system wins by a multiple, the miss rates drop
// accordingly, CPI improves more for application 1 than for
// application 2, and the model's expectations match simulation within
// the paper's 2% bound. Skipped under -short.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape test skipped in -short mode")
	}
	cfg := experiments.Default()
	cfg.ProfileRuns = 1
	out, err := experiments.RunCommand("headline", cfg, scenario.NewRunner(cfg.Workers))
	if err != nil {
		t.Fatal(err)
	}
	var rows []experiments.HeadlineRow
	for _, d := range out.Documents {
		if env, ok := d.(report.Envelope); ok && env.Kind == "headline" {
			rows = env.Payload.([]experiments.HeadlineRow)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("headline rows = %d, want app1, app2 and the 1 MB variant", len(rows))
	}
	app1, app2, big := rows[0], rows[1], rows[2]

	// Paper: "5 times less misses" for app 1. Require at least 3x.
	if r := app1.Ratio; r < 3.0 {
		t.Errorf("app1 miss ratio = %.2f, want >= 3 (paper: 5)", r)
	}
	// Paper: "6.5 times less misses" for app 2. Require at least 2x.
	if r := app2.Ratio; r < 2.0 {
		t.Errorf("app2 miss ratio = %.2f, want >= 2 (paper: 6.5)", r)
	}
	// Miss rates must drop by a multiple in both apps.
	if app1.PartRate*2 > app1.SharedRate {
		t.Errorf("app1 miss rate %.4f -> %.4f: no multiple improvement",
			app1.SharedRate, app1.PartRate)
	}
	if app2.PartRate*1.5 > app2.SharedRate {
		t.Errorf("app2 miss rate %.4f -> %.4f: insufficient improvement",
			app2.SharedRate, app2.PartRate)
	}
	// CPI: both improve; app1's relative gain exceeds app2's (the paper:
	// 20% vs 4%, "the used mpeg2 implementation was ... more L1 and
	// processor bounded").
	gain1 := 1 - app1.PartCPI/app1.SharedCPI
	gain2 := 1 - app2.PartCPI/app2.SharedCPI
	if gain1 <= 0 || gain2 <= 0 {
		t.Errorf("CPI did not improve: app1 %.3f, app2 %.3f", gain1, gain2)
	}
	if gain1 <= gain2 {
		t.Errorf("app1 CPI gain %.3f not larger than app2's %.3f (paper: 20%% vs 4%%)",
			gain1, gain2)
	}
	// Figure 3: compositional within the paper's 2% bound.
	if app1.MaxRelDiff > 0.02 {
		t.Errorf("app1 not compositional: max rel diff %.4f", app1.MaxRelDiff)
	}
	if app2.MaxRelDiff > 0.02 {
		t.Errorf("app2 not compositional: max rel diff %.4f", app2.MaxRelDiff)
	}

	// The 1 MB shared L2 approaches the partitioned 512 KB system for
	// MPEG-2 (paper: 0.6% vs 0.8% miss rate).
	if big.SharedMiss > app2.SharedMiss {
		t.Error("1MB shared worse than 512KB shared")
	}
	lo, hi := app2.PartMiss, big.SharedMiss
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("1MB shared (%d) and partitioned 512KB (%d) should be close", big.SharedMiss, app2.PartMiss)
	}
}
