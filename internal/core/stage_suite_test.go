package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chip"
)

// TestRunSuiteTemplateFullCoverage: the suite pipeline fully covers a
// generated FPVA grid and reports its work through the stage counters.
// Generation's certifications share state analyses on the run's one
// simulator, and the campaign reuses every state generation analysed: it
// looks each suite vector's state up once and analyses none.
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
	states, hits, misses := gen.Counter("fault_state_evals"), gen.Counter("fault_memo_hits"), gen.Counter("fault_memo_misses")
	if states == 0 || states != misses {
		t.Fatalf("fault_state_evals=%d for %d state-memo misses: each miss must analyse one state", states, misses)
	}
	if hits <= misses {
		t.Fatalf("%d state-memo hits for %d misses: line vectors must share states", hits, misses)
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
	if misses, states := camp.Counter("fault_memo_misses"), camp.Counter("fault_state_evals"); misses != 0 || states != 0 {
		t.Fatalf("campaign missed the state memo %d times and analysed %d states: generation certified every suite vector", misses, states)
	}
	if hits := camp.Counter("fault_memo_hits"); hits != int64(len(res.Suite.Vectors())) {
		t.Fatalf("campaign made %d state-memo hits, want one per suite vector (%d)", hits, len(res.Suite.Vectors()))
	}
	if camp.Counter("cov_total") != int64(res.Coverage.Total) {
		t.Fatalf("cov_total=%d, want %d", camp.Counter("cov_total"), res.Coverage.Total)
	}
	if res.Metrics.BridgeChecks == 0 || res.Metrics.ReachChecks == 0 {
		t.Fatalf("fast-path rules unused: %+v", res.Metrics)
	}
}

// TestRunSuiteStateEvalsWorkerInvariant: generation analyses each line
// state once before the per-valve loop, so the suitegen stage analyses the
// same number of valve states at any worker count: one path state per row
// and column and one cut state per lattice gap (8+8+7+7 on the 8x8 grid,
// 16+16+15+15 on the 16x16).
func TestRunSuiteStateEvalsWorkerInvariant(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want int64
	}{{8, 3, 30}, {16, 2018, 62}} {
		c := chip.MustGenerateFPVA(chip.FPVAParams{W: tc.n, H: tc.n, Seed: tc.seed})
		for _, workers := range []int{1, 2, 8} {
			for round := 0; round < 3; round++ {
				res, err := RunSuite(c, SuiteRunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				gen := res.Stats.Stage(StageSuiteGen)
				if got := gen.Counter("fault_state_evals"); got != tc.want {
					t.Fatalf("fpva%d/s%d workers=%d round %d: suitegen fault_state_evals=%d, want %d",
						tc.n, tc.seed, workers, round, got, tc.want)
				}
			}
		}
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
