package testgen

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
)

// suiteChips returns the designs the suite property tests sweep: the three
// bundled chips plus generated FPVA grids. The elongated 44x8 grid with
// seven ports leaves 344 valves off any qualifying grid line, so it
// exercises the per-valve solve beside the line recipe.
func suiteChips(t *testing.T) []*chip.Chip {
	t.Helper()
	chips := append([]*chip.Chip(nil), chip.Benchmarks()...)
	chips = append(chips, chip.FPVA(6, 6))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 1}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 6, H: 8, Seed: 11}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 12, H: 10, Seed: 5, Ports: 9}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 44, H: 8, Seed: 1, Ports: 7}))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2; i++ {
		chips = append(chips, chip.Random(rng))
	}
	return chips
}

// canonical strips the non-invariant stats so suites can be compared
// bit-for-bit.
func canonical(s *Suite) *Suite {
	return &Suite{Paths: s.Paths, Cuts: s.Cuts, PathOf: s.PathOf, CutOf: s.CutOf, Uncovered: s.Uncovered}
}

// vectorOf returns a valve's path or cut vector in s, false when it has
// none.
func vectorOf(s *Suite, v int, kind fault.VectorKind) (fault.Vector, bool) {
	vecs, of := s.Paths, s.PathOf
	if kind == fault.CutVector {
		vecs, of = s.Cuts, s.CutOf
	}
	if of[v] < 0 {
		return fault.Vector{}, false
	}
	return vecs[of[v]], true
}

// TestSuiteEnginesCoverageEqual: GenerateTemplates must reach coverage
// equal to GenerateBaseline on every design — the acceptance gate of the
// scaling bench — and a valve off every qualifying grid line must get the
// baseline's own path and cut vectors, since both run the same per-valve
// solve.
func TestSuiteEnginesCoverageEqual(t *testing.T) {
	for _, c := range suiteChips(t) {
		base, err := GenerateBaseline(c, SuiteOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.Name, err)
		}
		tmpl, err := GenerateTemplates(c, SuiteOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: template: %v", c.Name, err)
		}
		covB, covT := base.Coverage(), tmpl.Coverage()
		if !reflect.DeepEqual(covB, covT) {
			t.Fatalf("%s: coverage differs: baseline %+v, template %+v", c.Name, covB, covT)
		}
		if !reflect.DeepEqual(base.Uncovered, tmpl.Uncovered) {
			t.Fatalf("%s: uncovered differs: %v vs %v", c.Name, base.Uncovered, tmpl.Uncovered)
		}
		pre := newSuitePre(fault.MustSimulator(c, chip.IndependentControl(c)))
		pre.buildLines()
		for v := 0; v < c.NumValves(); v++ {
			if _, _, ok := pre.lineOf(v); ok {
				continue
			}
			for _, kind := range []fault.VectorKind{fault.PathVector, fault.CutVector} {
				vb, okB := vectorOf(base, v, kind)
				vt, okT := vectorOf(tmpl, v, kind)
				if okB != okT || !reflect.DeepEqual(vb, vt) {
					t.Fatalf("%s: valve %d off the lines: %v valves %v, baseline %v", c.Name, v, kind, vt.Valves, vb.Valves)
				}
			}
		}
	}
}

// TestFPVASuiteFullCoverage: on dense FPVA grids every valve must get both
// vectors and the suite must detect every stuck-at fault.
func TestFPVASuiteFullCoverage(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 10, Seed: 2})
	for _, gen := range []func() (*Suite, error){
		func() (*Suite, error) { return GenerateBaseline(c, SuiteOptions{Workers: 4}) },
		func() (*Suite, error) { return GenerateTemplates(c, SuiteOptions{Workers: 4}) },
	} {
		s, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Uncovered) != 0 {
			t.Fatalf("%s suite left valves uncovered: %v", s.Stats.Engine, s.Uncovered)
		}
		if cov := s.Coverage(); !cov.Full() {
			t.Fatalf("%s suite coverage %v", s.Stats.Engine, cov)
		}
		for v := 0; v < c.NumValves(); v++ {
			if s.PathOf[v] < 0 || s.PathOf[v] >= len(s.Paths) || s.CutOf[v] < 0 || s.CutOf[v] >= len(s.Cuts) {
				t.Fatalf("%s: valve %d has bad vector indexes %d/%d", s.Stats.Engine, v, s.PathOf[v], s.CutOf[v])
			}
		}
	}
}

// TestSuiteWorkerCountInvariance: both generators must produce
// bit-identical suites for any worker count.
func TestSuiteWorkerCountInvariance(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 8, Seed: 3})
	var wantB, wantT *Suite
	for _, workers := range []int{1, 2, 4, 8} {
		b, err := GenerateBaseline(c, SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s, err := GenerateTemplates(c, SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if wantB == nil {
			wantB, wantT = b, s
			continue
		}
		if !reflect.DeepEqual(canonical(b), canonical(wantB)) {
			t.Fatalf("baseline suite differs at %d workers", workers)
		}
		if !reflect.DeepEqual(canonical(s), canonical(wantT)) {
			t.Fatalf("template suite differs at %d workers", workers)
		}
	}
}

// TestTemplateClassCompression: the point of the line recipe — on a
// square FPVA every valve lies on a qualifying grid line, so both vectors
// of every valve come from its line and no path or cut is solved.
func TestTemplateClassCompression(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 16, H: 16, Seed: 1})
	s, err := GenerateTemplates(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats
	if nv := int64(c.NumValves()); st.Instantiated != 2*nv || st.Fallbacks != 0 {
		t.Fatalf("%d line and %d solved vectors for %d valves", st.Instantiated, st.Fallbacks, nv)
	}
	if st.PathSolves != 0 || st.CutSolves != 0 {
		t.Fatalf("%d path and %d cut solves on a square FPVA", st.PathSolves, st.CutSolves)
	}
}

// TestSuiteGenerationCancellation: a dead context aborts both generators.
func TestSuiteGenerationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := chip.FPVA(6, 6)
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	if _, err := GenerateBaselineCtx(ctx, sim, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("baseline ignored a cancelled context")
	}
	if _, err := GenerateTemplatesCtx(ctx, sim, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("GenerateTemplatesCtx ignored a cancelled context")
	}
}

// TestSuiteVectorsCertified: every suite vector must be usable and detect
// the target fault of every valve mapped to it.
func TestSuiteVectorsCertified(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 7})
	s, err := GenerateTemplates(c, SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	for v := 0; v < c.NumValves(); v++ {
		pv, cv := s.Paths[s.PathOf[v]], s.Cuts[s.CutOf[v]]
		if !sim.FaultFreeOK(pv) || !sim.Detects(pv, fault.Fault{Kind: fault.StuckAt0, Valve: v}) {
			t.Fatalf("path vector of valve %d fails certification", v)
		}
		if !sim.FaultFreeOK(cv) || !sim.Detects(cv, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
			t.Fatalf("cut vector of valve %d fails certification", v)
		}
	}
}
