package core

import (
	"math/rand"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/flowstage"
	"repro/internal/testgen"
)

// TestSharingScreenSound checks the revalidation screen's promise: a
// sharing fitness is the same with and without the screen. Heuristic
// configurations of the three bundled designs under seeded edge weights
// are each evaluated twice per seeded random partner assignment — once
// through a configuration whose screen runs, once through a copy whose
// screen is forced off — and the fitness values must be equal. The
// screen must prove some schemes, or the comparison is vacuous.
func TestSharingScreenSound(t *testing.T) {
	const configs, schemes = 4, 40
	rng := rand.New(rand.NewSource(14))
	st := &flowstage.StageStats{}
	compared := 0
	for _, d := range []struct {
		chip  *chip.Chip
		assay *assay.Graph
	}{
		{chip.IVD(), assay.IVD()},
		{chip.RA30(), assay.PID()},
		{chip.MRNA(), assay.CPA()},
	} {
		f := &flow{orig: d.chip, graph: d.assay, opts: Options{}.withDefaults(),
			augCache: newAugCache(0), innerCache: newInnerCache(0), cur: st}
		for cfg := 0; cfg < configs; cfg++ {
			weights := make([]float64, d.chip.Grid.NumEdges())
			for _, e := range f.freeEdges() {
				weights[e] = rng.Float64() * 4
			}
			aug, err := testgen.AugmentHeuristic(d.chip, testgen.Options{EdgeWeights: weights})
			if err != nil {
				t.Fatalf("%s config %d: %v", d.chip.Name, cfg, err)
			}
			screened := f.evalAug(aug)
			if screened.cutsErr != nil {
				t.Fatalf("%s config %d: cuts: %v", d.chip.Name, cfg, screened.cutsErr)
			}
			unscreened := &augEval{aug: aug, key: screened.key, paths: screened.paths, cuts: screened.cuts,
				baselineUndetected: screened.baselineUndetected, sum: screened.sum}
			unscreened.screenOnce.Do(func() {})
			x := make([]float64, aug.Chip.NumDFTValves())
			for s := 0; s < schemes; s++ {
				for i := range x {
					x[i] = rng.Float64()
				}
				partners := f.decodePartners(aug.Chip, x)
				with := f.computeSharingFitness(screened, partners)
				without := f.computeSharingFitness(unscreened, partners)
				if with != without {
					t.Fatalf("%s config %d partners %v: fitness %v with the screen, %v without",
						d.chip.Name, cfg, partners, with, without)
				}
				compared++
			}
		}
	}
	proved := st.Counter("reval_fastpath") + st.Counter("reval_recheck_pass")
	t.Logf("%d schemes compared, %d proved by the screen (%d structurally)", compared, proved, st.Counter("reval_fastpath"))
	if proved == 0 {
		t.Fatal("the screen proved no scheme; the comparison is vacuous")
	}
}
