package testgen

import (
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
)

// repairFixture returns an augmented RA30 chip with its base vectors —
// the configuration whose DFT valves sit in series at the P0 pocket, the
// known-hard case for sharing-aware repair.
func repairFixture(t *testing.T) (*Augmentation, []fault.Vector, []fault.Vector) {
	t.Helper()
	aug, err := AugmentHeuristic(chip.RA30(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := GenerateCuts(aug.Chip, aug.Source, aug.Meter)
	if err != nil {
		t.Fatal(err)
	}
	return aug, aug.PathVectors(), cuts
}

func TestRepairNoopUnderIndependentControl(t *testing.T) {
	aug, paths, cuts := repairFixture(t)
	ctrl := chip.IndependentControl(aug.Chip)
	p2, c2, full := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
	if !full {
		t.Fatal("independent control must already be fully covered")
	}
	if len(p2) != len(paths) || len(c2) != len(cuts) {
		t.Fatalf("repair changed vector counts without need: %d/%d -> %d/%d",
			len(paths), len(cuts), len(p2), len(c2))
	}
}

func TestRepairFixesMaskedCuts(t *testing.T) {
	aug, paths, cuts := repairFixture(t)
	// Partner pair (8, 9) couples the DFT valves to the redundant D1-D2
	// channel; the base cuts mask the DFT valves' stuck-at-1 faults, and
	// repair must regenerate sharing-aware ones.
	ctrl, err := chip.SharedControl(aug.Chip, []int{8, 9})
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(aug.Chip, ctrl)
	base := append(append([]fault.Vector{}, paths...), cuts...)
	covBefore := sim.EvaluateCoverage(base, fault.AllFaults(aug.Chip))
	p2, c2, full := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
	if !full {
		t.Fatalf("repair failed; before-coverage was %v (undetected %v)", covBefore, covBefore.Undetected)
	}
	after := append(append([]fault.Vector{}, p2...), c2...)
	covAfter := sim.EvaluateCoverage(after, fault.AllFaults(aug.Chip))
	if !covAfter.Full() {
		t.Fatalf("repair reported full but coverage is %v", covAfter)
	}
	if covBefore.Full() && len(c2) > len(cuts) {
		t.Fatal("repair added cuts although coverage was already full")
	}
}

func TestRepairedVectorsUseSingleInstrumentPair(t *testing.T) {
	aug, paths, cuts := repairFixture(t)
	ctrl, err := chip.SharedControl(aug.Chip, []int{8, 9})
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, full := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
	if !full {
		t.Skip("pair (8,9) not repairable on this configuration")
	}
	for _, v := range append(append([]fault.Vector{}, p2...), c2...) {
		if len(v.Sources) != 1 || len(v.Meters) != 1 ||
			v.Sources[0] != aug.Source || v.Meters[0] != aug.Meter {
			t.Fatalf("repaired vector escaped the single instrument pair: %v", v)
		}
	}
}

func TestRepairReportsUnfixable(t *testing.T) {
	// Structural impossibility: sharing the P0-pocket DFT valve with v0
	// (P0's only original edge) makes the DFT valve's stuck-at-1
	// undetectable — every leak through it must cross the auto-closed
	// partner. Repair must report failure, not fake coverage.
	aug, paths, cuts := repairFixture(t)
	nOrig := aug.Chip.NumOriginalValves()
	if aug.Chip.NumDFTValves() < 2 {
		t.Skip("fixture changed")
	}
	// Find the partner assignment coupling a DFT valve to v0 plus the
	// M1-M2 chain (v1), the known-unfixable combination from the analysis.
	ctrl, err := chip.SharedControl(aug.Chip, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, _, full := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
	if full {
		// Not fatal — the exact geometry depends on the heuristic's pick —
		// but verify the claimed coverage honestly.
		sim := fault.MustSimulator(aug.Chip, ctrl)
		p2, c2, _ := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
		cov := sim.EvaluateCoverage(append(append([]fault.Vector{}, p2...), c2...), fault.AllFaults(aug.Chip))
		if !cov.Full() {
			t.Fatal("repair claimed full coverage falsely")
		}
	}
	_ = nOrig
}

func TestRepairAgreesWithSimulatorAcrossPairs(t *testing.T) {
	// Property over a sample of sharing pairs: whenever RepairVectors
	// reports full coverage, the simulator confirms it; whenever it
	// reports failure, the base vectors were indeed incomplete.
	aug, paths, cuts := repairFixture(t)
	nOrig := aug.Chip.NumOriginalValves()
	if aug.Chip.NumDFTValves() != 2 {
		t.Skip("fixture expects 2 DFT valves")
	}
	pairs := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}, {3, 12}, {9, 6}}
	for _, pr := range pairs {
		if pr[0] >= nOrig || pr[1] >= nOrig {
			continue
		}
		ctrl, err := chip.SharedControl(aug.Chip, []int{pr[0], pr[1]})
		if err != nil {
			t.Fatal(err)
		}
		sim := fault.MustSimulator(aug.Chip, ctrl)
		p2, c2, full := RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts)
		cov := sim.EvaluateCoverage(append(append([]fault.Vector{}, p2...), c2...), fault.AllFaults(aug.Chip))
		if full != cov.Full() {
			t.Fatalf("pair %v: repair says full=%v but simulator says %v", pr, full, cov)
		}
	}
}

// TestRepairIndexAllocFree: a scheme's control-line and per-edge tables
// are rebuilt in the pooled scratch's buffers, so once they have grown,
// indexing the next scheme allocates nothing, and the repairs of its
// faults read the tables instead of building per-fault closures.
func TestRepairIndexAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; asserted in non-race CI")
	}
	aug, _, _ := repairFixture(t)
	c := aug.Chip
	shared, err := chip.SharedControl(c, []int{8, 9})
	if err != nil {
		t.Fatal(err)
	}
	indep := chip.IndependentControl(c)
	rs := new(repairScratch)
	rs.index(c, indep)
	if allocs := testing.AllocsPerRun(50, func() {
		rs.index(c, shared)
		rs.index(c, indep)
	}); allocs != 0 {
		t.Fatalf("indexing a scheme allocates %v times, want 0", allocs)
	}
}
