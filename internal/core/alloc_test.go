package core

import (
	"math/rand"
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/testgen"
)

// sharingEvalAllocBudget caps the mean allocations of one slow-path
// sharing evaluation on mRNA/CPA below a third of the 4,134 that a full
// campaign, repairs with a fresh flow network and maps per attempt, and a
// second full campaign took on this sample. The incremental check with
// pooled repair buffers takes about 600; most of the rest is the fault
// simulator's per-vector evaluation.
const sharingEvalAllocBudget = 1300

// TestSharingEvalAllocBudget measures computeSharingFitness on 40 seeded
// schemes of the unbiased mRNA/CPA configuration under which the base
// vectors miss some fault, so every evaluation runs repairs.
func TestSharingEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget asserted in non-race CI")
	}
	c, a := chip.MRNA(), assay.CPA()
	f := &flow{orig: c, graph: a, opts: Options{}.withDefaults(),
		augCache:   artifact.NewCache[*augEval](0, nil),
		innerCache: artifact.NewCache[float64](0, nil),
	}
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := f.evalAug(aug)
	base := append(append([]fault.Vector{}, ev.paths...), ev.cuts...)
	rng := rand.New(rand.NewSource(16))
	x := make([]float64, aug.Chip.NumDFTValves())
	var total float64
	const schemes = 40
	for n := 0; n < schemes; {
		for i := range x {
			x[i] = rng.Float64()
		}
		partners := f.decodePartners(aug.Chip, x)
		ctrl, err := chip.SharedControl(aug.Chip, partners)
		if err != nil {
			t.Fatal(err)
		}
		if fault.MustSimulator(aug.Chip, ctrl).EvaluateCoverage(base, fault.AllFaults(aug.Chip)).Full() {
			continue // no repairs: not a slow-path evaluation
		}
		total += testing.AllocsPerRun(1, func() { f.computeSharingFitness(ev, partners) })
		n++
	}
	mean := total / schemes
	t.Logf("%.0f allocations per slow-path evaluation (budget %d)", mean, sharingEvalAllocBudget)
	if mean > sharingEvalAllocBudget {
		t.Fatalf("allocation regression: %.0f allocations per slow-path evaluation, budget %d", mean, sharingEvalAllocBudget)
	}
}
