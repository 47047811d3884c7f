package testgen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
)

// The pipeline-level property behind the paper's headline claim: for ANY
// valid chip (not just the three benchmarks), heuristic augmentation plus
// cut generation yields a complete single-source single-meter test set.
func TestRandomChipsSingleSourceSingleMeterProperty(t *testing.T) {
	okCount := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := chip.Random(rng)
		aug, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Errorf("seed %d (%s): augmentation failed: %v", seed, c.Name, err)
			continue
		}
		cuts, err := GenerateCuts(aug.Chip, aug.Source, aug.Meter)
		if err != nil {
			t.Errorf("seed %d (%s): cut generation failed: %v", seed, c.Name, err)
			continue
		}
		cov, err := aug.Verify(nil, cuts)
		if err != nil {
			t.Errorf("seed %d (%s): verify failed: %v", seed, c.Name, err)
			continue
		}
		if !cov.Full() {
			t.Errorf("seed %d (%s): coverage %v, undetected %v", seed, c.Name, cov, cov.Undetected)
			continue
		}
		okCount++
	}
	if okCount < 25 {
		t.Fatalf("only %d/25 random chips passed", okCount)
	}
}

// FPVA is the no-free-edge limiting case: augmentation must succeed
// without adding anything (the dense mesh already routes every channel
// onto a source-meter path).
func TestFPVANeedsNoAugmentation(t *testing.T) {
	c := chip.FPVA(5, 5)
	aug, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aug.AddedEdges) != 0 {
		t.Fatalf("FPVA has no free edges, yet %d were 'added'", len(aug.AddedEdges))
	}
	cuts, err := GenerateCuts(aug.Chip, aug.Source, aug.Meter)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := aug.Verify(nil, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Full() {
		t.Fatalf("FPVA coverage %v, undetected %v", cov, cov.Undetected)
	}
}

// ILP validity on a random chip. Note the ILP is optimal in added edges
// only for its chosen path count |P| (the paper stops at the first
// feasible |P|); a heuristic solution with more paths may legitimately
// need fewer added edges, so no ≤ comparison is asserted here — that
// comparison holds at matched |P| and is asserted on the IVD benchmark in
// TestILPAugmentIVD.
func TestILPOnRandomChipIsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP solves are slow")
	}
	rng := rand.New(rand.NewSource(1))
	c := chip.Random(rng)
	exact, err := AugmentILPCtx(context.Background(), c, Options{ILPMaxNodes: 1500})
	if err != nil {
		t.Skipf("ILP gave up on this instance (%v) — the heuristic engine covers it", err)
	}
	checkAugmentation(t, c, exact)
	cuts, err := GenerateCuts(exact.Chip, exact.Source, exact.Meter)
	if err != nil {
		t.Fatal(err)
	}
	if cov, err := exact.Verify(nil, cuts); err != nil || !cov.Full() {
		t.Fatalf("ILP augmentation coverage %v (err %v)", cov, err)
	}
}

// Every augmentation keeps the original chip untouched and marks exactly
// the added edges as DFT valves.
func TestAugmentationAccountingProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		c := chip.Random(rng)
		before := c.NumValves()
		aug, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.NumValves() != before {
			t.Fatalf("seed %d: input chip mutated", seed)
		}
		if aug.Chip.NumDFTValves() != len(aug.AddedEdges) {
			t.Fatalf("seed %d: %d DFT valves vs %d added edges", seed, aug.Chip.NumDFTValves(), len(aug.AddedEdges))
		}
		if aug.Chip.NumOriginalValves() != before {
			t.Fatalf("seed %d: original valve count changed", seed)
		}
		for _, v := range fault.AllFaults(aug.Chip) {
			_ = v // fault enumeration must not panic on augmented chips
		}
	}
}
