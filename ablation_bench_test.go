package repro_test

// Ablation benchmarks for the design choices DESIGN.md §7 calls out:
//
//	BenchmarkAblationILPvsHeuristic – exact augmentation ILP (eqs. 1-6)
//	    vs the greedy engine: added-channel counts and runtime.
//	BenchmarkAblationPSOvsRandom    – the paper's guided two-level PSO vs
//	    best-of-N random sharing draws on the same architecture.
//	BenchmarkAblationLeakage        – extends the fault campaign with the
//	    leakage defects the paper mentions but does not evaluate; the cut
//	    vectors must cover them at no extra cost.

import (
	"context"
	"math"
	"testing"

	"repro/dft"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/testgen"
)

// BenchmarkAblationILPvsHeuristic compares the two augmentation engines on
// the IVD chip. The ILP is provably minimal in added channels; the greedy
// engine trades a few extra channels for three orders of magnitude in
// speed (it runs inside the PSO loop).
func BenchmarkAblationILPvsHeuristic(b *testing.B) {
	b.Run("heuristic", func(b *testing.B) {
		var added int
		for i := 0; i < b.N; i++ {
			aug, err := testgen.AugmentHeuristic(chip.IVD(), testgen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			added = len(aug.AddedEdges)
		}
		b.ReportMetric(float64(added), "added-channels")
	})
	b.Run("ilp", func(b *testing.B) {
		var added int
		for i := 0; i < b.N; i++ {
			aug, err := testgen.AugmentILPCtx(context.Background(), chip.IVD(), testgen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			added = len(aug.AddedEdges)
		}
		b.ReportMetric(float64(added), "added-channels")
	})
}

// BenchmarkAblationPSOvsRandom compares the guided two-level PSO flow
// against drawing random sharing schemes on the unbiased architecture —
// the search-strategy ablation. Reported metrics: best execution time
// found by each strategy (lower is better; 0 means the strategy found no
// valid scheme at all).
func BenchmarkAblationPSOvsRandom(b *testing.B) {
	const samples = 40
	b.Run("pso", func(b *testing.B) {
		var exec int
		for i := 0; i < b.N; i++ {
			res, err := dft.Run(dft.ChipIVD(), dft.AssayCPA(), benchOpts(20))
			if err != nil {
				b.Fatal(err)
			}
			exec = res.ExecPSO
		}
		b.ReportMetric(float64(exec), "best-exec-s")
	})
	b.Run("random", func(b *testing.B) {
		var best int
		for i := 0; i < b.N; i++ {
			best = bestRandomSharing(b, samples)
		}
		b.ReportMetric(float64(best), "best-exec-s")
	})
}

// bestRandomSharing draws `samples` partner assignments uniformly (via a
// simple deterministic LCG) and returns the best valid execution time
// (or 0 when none validates).
func bestRandomSharing(b *testing.B, samples int) int {
	c := chip.IVD()
	a := dft.AssayCPA()
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cuts, err := testgen.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
	if err != nil {
		b.Fatal(err)
	}
	paths := aug.PathVectors()
	nOrig := aug.Chip.NumOriginalValves()
	nDFT := aug.Chip.NumDFTValves()
	best := math.MaxInt
	state := uint64(benchSeed)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for s := 0; s < samples; s++ {
		partners := make([]int, 0, nDFT)
		used := map[int]bool{}
		for len(partners) < nDFT {
			p := next(nOrig)
			if !used[p] {
				used[p] = true
				partners = append(partners, p)
			}
		}
		ctrl, err := chip.SharedControl(aug.Chip, partners)
		if err != nil {
			continue
		}
		if _, _, full := testgen.RepairVectors(aug.Chip, ctrl, aug.Source, aug.Meter, paths, cuts); !full {
			continue
		}
		if sch, err := sched.Run(aug.Chip, ctrl, a, sched.Params{}); err == nil && sch.ExecutionTime < best {
			best = sch.ExecutionTime
		}
	}
	if best == math.MaxInt {
		return 0
	}
	return best
}

// BenchmarkAblationWash compares assay execution with the contamination
// wash model ([11]) off (the paper's setting) and on: PID's dilution chain
// reuses channels constantly and pays the most.
func BenchmarkAblationWash(b *testing.B) {
	for _, wash := range []int{0, 10} {
		name := "off"
		if wash > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var exec int
			for i := 0; i < b.N; i++ {
				sch, err := sched.Run(chip.IVD(), nil, dft.AssayPID(), sched.Params{WashTimePerEdge: wash})
				if err != nil {
					b.Fatal(err)
				}
				exec = sch.ExecutionTime
			}
			b.ReportMetric(float64(exec), "exec-s")
		})
	}
}

// BenchmarkAblationLeakage runs the full fault campaign including leakage
// defects (3 faults per valve instead of 2). Coverage must remain 100 %:
// in the pressure abstraction a leaking membrane behaves like a valve that
// cannot close, so the stuck-at-1 cuts already catch it.
func BenchmarkAblationLeakage(b *testing.B) {
	for _, name := range []string{"IVD_chip", "RA30_chip", "mRNA_chip"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				c, _ := dft.ChipByName(name)
				aug, err := dft.Augment(c, false)
				if err != nil {
					b.Fatal(err)
				}
				cuts, err := dft.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
				if err != nil {
					b.Fatal(err)
				}
				sim, err := dft.NewSimulator(aug.Chip, nil)
				if err != nil {
					b.Fatal(err)
				}
				faults := fault.AllFaultsOfKinds(aug.Chip, fault.StuckAt0, fault.StuckAt1, fault.Leakage)
				cov := sim.EvaluateCoverage(append(aug.PathVectors(), cuts...), faults)
				if !cov.Full() {
					b.Fatalf("%s: leakage campaign not fully covered: %v", name, cov)
				}
				ratio = cov.Ratio()
			}
			b.ReportMetric(ratio*100, "coverage-%")
		})
	}
}
