package core

import (
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/pso"
	"repro/internal/sched"
	"repro/internal/testgen"
)

// TestRA30CPAFlowSucceeds covers the hardest Table 1 cell: the reference
// configuration for CPA on RA30 admits no valid sharing at all, so the
// flow must diversify configurations (ban loop) to succeed.
func TestRA30CPAFlowSucceeds(t *testing.T) {
	res, err := RunDFTFlow(chip.RA30(), assay.CPA(), Options{
		Outer: pso.Config{Particles: 5, Iterations: 30},
		Inner: pso.Config{Particles: 5, Iterations: 8},
		Seed:  2018,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen configuration must differ from the (invalid) reference.
	ref, err := testgen.AugmentHeuristic(chip.RA30(), testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := len(ref.AddedEdges) == len(res.Aug.AddedEdges)
	if same {
		for i := range ref.AddedEdges {
			if ref.AddedEdges[i] != res.Aug.AddedEdges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("flow kept the reference configuration although it admits no valid sharing")
	}
	// And the result must hold up end to end.
	sim := fault.MustSimulator(res.Aug.Chip, res.Control)
	cov := sim.EvaluateCoverage(append(res.PathVectors, res.CutVectors...), fault.AllFaults(res.Aug.Chip))
	if !cov.Full() {
		t.Fatalf("coverage %v", cov)
	}
	sch, err := sched.Run(res.Aug.Chip, res.Control, assay.CPA(), Options{}.Sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateSchedule(res.Aug.Chip, assay.CPA(), sch); err != nil {
		t.Fatal(err)
	}
	if sch.ExecutionTime != res.ExecPSO {
		t.Fatalf("schedule %d != reported %d", sch.ExecutionTime, res.ExecPSO)
	}
}

func TestNoPSONeverBeatsPSO(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunDFTFlow(chip.IVD(), assay.CPA(), Options{
			Outer: pso.Config{Particles: 4, Iterations: 10},
			Inner: pso.Config{Particles: 4, Iterations: 6},
			Seed:  seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecPSO > res.ExecNoPSO {
			t.Fatalf("seed %d: PSO %d worse than unoptimized %d", seed, res.ExecPSO, res.ExecNoPSO)
		}
	}
}

func TestWorstValidSharing(t *testing.T) {
	c := chip.IVD()
	g := assay.CPA()
	f := &flow{orig: c, graph: g, opts: Options{}.withDefaults(),
		augCache:   artifact.NewCache[*augEval](0, nil),
		innerCache: artifact.NewCache[float64](0, nil),
	}
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := f.evalAug(aug)
	fit := f.bestSharingFitness(ev)
	if fit >= validThreshold {
		t.Skip("no valid sharing for this configuration")
	}
	worst := f.worstValidSharing(ev)
	if float64(worst) < fit {
		t.Fatalf("worst valid %d below best %v", worst, fit)
	}
	if float64(worst) >= validThreshold {
		t.Fatalf("worst valid sharing leaked a penalty value: %d", worst)
	}
}

func TestGradedPenaltiesOrdering(t *testing.T) {
	// Coverage failures must rank worse than schedulability failures,
	// which rank worse than any real execution time.
	covFail := penaltyBase + 1e6*3
	schedFail := penaltyBase + 1e5 - 100*20
	real := 2000.0
	if !(covFail > schedFail && schedFail > real) {
		t.Fatal("penalty ordering broken")
	}
	if real >= validThreshold || schedFail < validThreshold {
		t.Fatal("threshold misplaced")
	}
	if math.IsInf(covFail, 1) {
		t.Fatal("graded penalty must stay finite")
	}
}

func TestFlowOnAllCombosSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("9 flows")
	}
	for _, c := range chip.Benchmarks() {
		for _, g := range assay.Benchmarks() {
			res, err := RunDFTFlow(c, g, Options{
				Outer: pso.Config{Particles: 4, Iterations: 12},
				Inner: pso.Config{Particles: 4, Iterations: 6},
				Seed:  2018,
			})
			if err != nil {
				t.Errorf("%s/%s: %v", c.Name, g.Name, err)
				continue
			}
			if res.NumShared != res.NumDFTValves {
				t.Errorf("%s/%s: %d of %d DFT valves share", c.Name, g.Name, res.NumShared, res.NumDFTValves)
			}
			if res.ExecPSO > res.ExecNoPSO {
				t.Errorf("%s/%s: PSO %d > noPSO %d", c.Name, g.Name, res.ExecPSO, res.ExecNoPSO)
			}
		}
	}
}
