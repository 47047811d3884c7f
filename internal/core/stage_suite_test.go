package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chip"
)

// TestRunSuiteTemplateFullCoverage: the suite pipeline fully covers a
// generated FPVA grid and reports its work through the stage counters, and
// the campaign reuses every analysis generation made on the run's one
// simulator.
func TestRunSuiteTemplateFullCoverage(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 3})
	res, err := RunSuite(c, SuiteRunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suite.Uncovered) != 0 {
		t.Fatalf("uncovered valves: %v", res.Suite.Uncovered)
	}
	if !res.Coverage.Full() {
		t.Fatalf("coverage not full: %v", res.Coverage)
	}
	gen := res.Stats.Stage(StageSuiteGen)
	if gen == nil {
		t.Fatalf("missing %s stage", StageSuiteGen)
	}
	if gen.Counter("tmpl_instantiated") == 0 {
		t.Fatal("tmpl_instantiated counter not recorded")
	}
	if states := gen.Counter("fault_state_evals"); states == 0 || states >= gen.Counter("fault_memo_misses") {
		t.Fatalf("fault_state_evals=%d for %d vector-memo misses: line vectors must share states",
			states, gen.Counter("fault_memo_misses"))
	}
	if gen.Counter("suite_vectors") != int64(len(res.Suite.Vectors())) {
		t.Fatalf("suite_vectors=%d, want %d", gen.Counter("suite_vectors"), len(res.Suite.Vectors()))
	}
	camp := res.Stats.Stage(StageSuiteCampaign)
	if camp == nil {
		t.Fatalf("missing %s stage", StageSuiteCampaign)
	}
	if camp.Counter("fault_campaigns") == 0 {
		t.Fatal("fault_campaigns counter not recorded")
	}
	if misses := camp.Counter("fault_memo_misses"); misses != 0 {
		t.Fatalf("campaign missed the vector memo %d times: generation certified every suite vector", misses)
	}
	if camp.Counter("cov_total") != int64(res.Coverage.Total) {
		t.Fatalf("cov_total=%d, want %d", camp.Counter("cov_total"), res.Coverage.Total)
	}
	if res.Metrics.BridgeChecks == 0 || res.Metrics.ReachChecks == 0 {
		t.Fatalf("fast-path rules unused: %+v", res.Metrics)
	}
}

// TestRunSuiteGoldenFPVA pins the template suites of the 16x16 and 32x32
// FPVAs at seed 2018 byte for byte: the SHA-256 of their EncodeSuite bytes
// must equal the repository benchmark's golden hashes of the suite_fpva
// ops fpva16/s2018 and fpva32/s2018 (benchmark/testdata/golden.json).
func TestRunSuiteGoldenFPVA(t *testing.T) {
	for _, tc := range []struct {
		n   int
		sha string
	}{
		{16, "abddc0f8af8f1020419fef240a884464416a07f23038bd28652828cd8e5e480e"},
		{32, "6bc7730f40bca8ba15b233bddda8f956d8ed21bc4adb20a151338001625b46e3"},
	} {
		c := chip.MustGenerateFPVA(chip.FPVAParams{W: tc.n, H: tc.n, Seed: 2018})
		res, err := RunSuite(c, SuiteRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeSuite(res.Suite, res.Coverage)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("fpva%d/s2018: suite sha256 %s, golden %s", tc.n, got, tc.sha)
		}
	}
}

// TestRunSuiteCancelled: an expired context aborts the pipeline.
func TestRunSuiteCancelled(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSuiteCtx(ctx, c, SuiteRunOptions{Workers: 2}); err == nil {
		t.Fatal("expected cancellation error")
	}
}
