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
// sharing evaluation on mRNA/CPA. A full campaign, repairs with a fresh
// flow network and maps per attempt, and a second full campaign took 4,134
// on this sample; the incremental check on a per-scheme memoizing
// simulator took 450, most of them its vector keys and memo records. On
// the pooled memo-free probe it takes about 45: the shared control, the
// check's dirty list and bitset, and the replacement vectors the repairs
// return. The budget is a third of the memoizing check's count.
const sharingEvalAllocBudget = 150

// TestSharingEvalAllocBudget measures computeSharingFitness on 40 seeded
// schemes of the unbiased mRNA/CPA configuration under which the base
// vectors miss some fault, so every evaluation runs repairs.
func TestSharingEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget asserted in non-race CI")
	}
	c, a := chip.MRNA(), assay.CPA()
	f := &flow{orig: c, graph: a, opts: Options{}.withDefaults(),
		augCache:   artifact.NewCache[*augEval](),
		innerCache: artifact.NewCache[float64](),
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
