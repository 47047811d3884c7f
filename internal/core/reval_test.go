package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/testgen"
)

// fullSharingFitness is the reference the incremental validation must
// reproduce: the full slow path, which simulates every base vector under
// the scheme (testgen.RepairVectors' campaign), repairs the misses and
// recounts coverage with a full campaign over the base and replacement
// vectors. baseline is the configuration's intrinsic gap, computed the
// same full way.
func fullSharingFitness(f *flow, ev *augEval, baseline int, partners []int) float64 {
	c := ev.aug.Chip
	ctrl, err := chip.SharedControl(c, partners)
	if err != nil {
		return math.Inf(1)
	}
	paths, cuts, _ := testgen.RepairVectors(c, ctrl, ev.aug.Source, ev.aug.Meter, ev.paths, ev.cuts)
	all := append(append([]fault.Vector{}, paths...), cuts...)
	cov := fault.MustSimulator(c, ctrl).EvaluateCoverage(all, fault.AllFaults(c))
	if len(cov.Undetected) > baseline {
		return penaltyBase + 1e6*float64(len(cov.Undetected))
	}
	sch, opsDone, err := f.runSched(c, ctrl)
	if err != nil {
		return penaltyBase + 1e5 - 100*float64(opsDone)
	}
	fit := float64(sch.ExecutionTime)
	for _, p := range partners {
		if p == -1 {
			fit += partialBand
		}
	}
	return fit
}

// TestSharingCheckExact checks the incremental sharing validation against
// the full slow path. Heuristic configurations of the three bundled
// designs under seeded edge weights are each checked under seeded random
// partner assignments (480 schemes in all) and under the scheme that gives
// every DFT valve its own line, which the flow's partial-sharing fallback
// evaluates. For every scheme:
//
//   - the incremental undetected list equals a full coverage campaign of
//     the base vectors under the scheme, fault for fault and in order;
//   - RepairUndetected's remaining count equals a full campaign over the
//     base and replacement vectors;
//   - computeSharingFitness equals fullSharingFitness.
//
// Each of the three outcomes (clean rows suffice, the dirty campaign
// suffices, repairs run) must occur, and so must schemes that leave
// faults after their repairs and schemes where one fault's replacement
// catches a fault whose own repair failed, or the comparison is partly
// vacuous. The seed is one whose sample holds all five cases.
func TestSharingCheckExact(t *testing.T) {
	const configs, schemes = 4, 40
	rng := rand.New(rand.NewSource(13))
	st := &flowstage.StageStats{}
	compared, leftover, caught := 0, 0, 0
	for _, d := range []struct {
		chip  *chip.Chip
		assay *assay.Graph
	}{
		{chip.IVD(), assay.IVD()},
		{chip.RA30(), assay.PID()},
		{chip.MRNA(), assay.CPA()},
	} {
		f := &flow{orig: d.chip, graph: d.assay, opts: Options{}.withDefaults(),
			augCache:   artifact.NewCache[*augEval](),
			innerCache: artifact.NewCache[float64](),
			cur:        st}
		for cfg := 0; cfg < configs; cfg++ {
			weights := make([]float64, d.chip.Grid.NumEdges())
			for _, e := range f.freeEdges() {
				weights[e] = rng.Float64() * 4
			}
			aug, err := testgen.AugmentHeuristic(d.chip, testgen.Options{EdgeWeights: weights})
			if err != nil {
				t.Fatalf("%s config %d: %v", d.chip.Name, cfg, err)
			}
			ev := f.evalAug(aug)
			if ev.cutsErr != nil {
				t.Fatalf("%s config %d: cuts: %v", d.chip.Name, cfg, ev.cutsErr)
			}
			c := aug.Chip
			base := append(append([]fault.Vector{}, ev.paths...), ev.cuts...)
			indep := fault.MustSimulator(c, chip.IndependentControl(c)).EvaluateCoverage(base, fault.AllFaults(c))
			if ev.baselineUndetected != len(indep.Undetected) {
				t.Fatalf("%s config %d: intrinsic gap %d from the matrix, %d from a full campaign",
					d.chip.Name, cfg, ev.baselineUndetected, len(indep.Undetected))
			}
			x := make([]float64, c.NumDFTValves())
			for s := 0; s <= schemes; s++ {
				for i := range x {
					x[i] = rng.Float64()
				}
				partners := f.decodePartners(c, x)
				if s == schemes {
					for i := range partners {
						partners[i] = -1
					}
				}
				ctrl, err := chip.SharedControl(c, partners)
				if err != nil {
					t.Fatal(err)
				}
				var probe fault.Probe
				if err := probe.Reset(c, ctrl, nil); err != nil {
					t.Fatal(err)
				}
				got, err := ev.check.undetected(context.Background(), f, &probe, partners)
				if err != nil {
					t.Fatal(err)
				}
				want := fault.MustSimulator(c, ctrl).EvaluateCoverage(base, fault.AllFaults(c)).Undetected
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s config %d partners %v: incremental undetected %v, full campaign %v",
						d.chip.Name, cfg, partners, got, want)
				}
				rPaths, rCuts, remaining := testgen.RepairUndetected(c, ctrl, &probe, aug.Source, aug.Meter, got)
				all := append(append(append([]fault.Vector{}, base...), rPaths...), rCuts...)
				if n := len(fault.MustSimulator(c, ctrl).EvaluateCoverage(all, fault.AllFaults(c)).Undetected); n != remaining {
					t.Fatalf("%s config %d partners %v: %d faults remain after repairs, a full recount finds %d",
						d.chip.Name, cfg, partners, remaining, n)
				}
				if remaining > 0 {
					leftover++
				}
				// Each successful repair adds one vector; the rest failed.
				if remaining < len(got)-len(rPaths)-len(rCuts) {
					caught++
				}
				inc := f.computeSharingFitness(ev, partners)
				ref := fullSharingFitness(f, ev, len(indep.Undetected), partners)
				if inc != ref {
					t.Fatalf("%s config %d partners %v: incremental fitness %v, full slow path %v",
						d.chip.Name, cfg, partners, inc, ref)
				}
				compared++
			}
		}
	}
	fast, recheck, slow := st.Counter("reval_fastpath"), st.Counter("reval_recheck_pass"), st.Counter("reval_slowpath")
	t.Logf("%d schemes compared: %d fast path, %d dirty campaign, %d repaired (%d with faults left, %d with a failed repair caught by another replacement)",
		compared, fast, recheck, slow, leftover, caught)
	if fast == 0 || recheck == 0 || slow == 0 || leftover == 0 || caught == 0 {
		t.Fatal("some validation outcome never occurred; the comparison is partly vacuous")
	}
}
