package fault

import (
	"testing"

	"repro/internal/chip"
)

func BenchmarkFaultCampaignIVD(b *testing.B) {
	c := chip.IVD()
	sim := MustSimulator(c, chip.IndependentControl(c))
	vectors := BenchCampaignVectors(c)
	faults := AllFaults(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.EvaluateCoverage(vectors, faults)
	}
}

func BenchmarkFaultCampaignMRNA(b *testing.B) {
	c := chip.MRNA()
	sim := MustSimulator(c, chip.IndependentControl(c))
	vectors := BenchCampaignVectors(c)
	faults := AllFaults(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.EvaluateCoverage(vectors, faults)
	}
}

func BenchmarkSingleDetect(b *testing.B) {
	c := chip.MRNA()
	sim := MustSimulator(c, chip.IndependentControl(c))
	v := BenchCampaignVectors(c)[0]
	f := Fault{Kind: StuckAt0, Valve: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Detects(v, f)
	}
}

// BenchmarkEvaluateCoverage compares one cold campaign on the largest
// bundled design (mRNA) on the two paths: the seed's serial recomputation
// (EvaluateCoverageBaseline) and the memoized engine. A fresh simulator
// per iteration keeps every campaign cold.
func BenchmarkEvaluateCoverage(b *testing.B) {
	c := chip.MRNA()
	vectors := BenchCampaignVectors(c)
	faults := AllFaults(c)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim := MustSimulator(c, chip.IndependentControl(c))
			EvaluateCoverageBaseline(sim, vectors, faults)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim := MustSimulator(c, chip.IndependentControl(c))
			NewEngine(sim, 1).EvaluateCoverage(vectors, faults)
		}
	})
}
