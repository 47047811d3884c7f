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
// bundled chips plus generated FPVA grids.
func suiteChips(t *testing.T) []*chip.Chip {
	t.Helper()
	chips := append([]*chip.Chip(nil), chip.Benchmarks()...)
	chips = append(chips, chip.FPVA(6, 6))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 1}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 6, H: 8, Seed: 11}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 12, H: 10, Seed: 5, Ports: 9}))
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

// TestSuiteEnginesCoverageEqual: the template engine must reach coverage
// equal to GenerateBaseline on every design — the acceptance gate of the
// scaling bench.
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
		covB, covT := base.Coverage(4), tmpl.Coverage(4)
		if !reflect.DeepEqual(covB, covT) {
			t.Fatalf("%s: coverage differs: baseline %+v, template %+v", c.Name, covB, covT)
		}
		if !reflect.DeepEqual(base.Uncovered, tmpl.Uncovered) {
			t.Fatalf("%s: uncovered differs: %v vs %v", c.Name, base.Uncovered, tmpl.Uncovered)
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
		if cov := s.Coverage(4); !cov.Full() {
			t.Fatalf("%s suite coverage %v", s.Stats.Engine, cov)
		}
		for v := 0; v < c.NumValves(); v++ {
			if s.PathOf[v] < 0 || s.PathOf[v] >= len(s.Paths) || s.CutOf[v] < 0 || s.CutOf[v] >= len(s.Cuts) {
				t.Fatalf("%s: valve %d has bad vector indexes %d/%d", s.Stats.Engine, v, s.PathOf[v], s.CutOf[v])
			}
		}
	}
}

// TestSuiteWorkerCountInvariance: both engines must produce bit-identical
// suites for any worker count (fresh engine per run).
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

// TestTemplateMemoPurity: re-generating on the same engine must hit the
// cache for every class and return the same suite.
func TestTemplateMemoPurity(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 10, Seed: 2})
	e := NewTemplateEngine()
	first, err := e.Generate(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.TemplateHits != 0 {
		t.Fatalf("fresh engine reported %d cache hits", first.Stats.TemplateHits)
	}
	second, err := e.Generate(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.TemplateHits != int64(second.Stats.Classes) {
		t.Fatalf("rerun hit %d/%d classes", second.Stats.TemplateHits, second.Stats.Classes)
	}
	if !reflect.DeepEqual(canonical(first), canonical(second)) {
		t.Fatal("memoized rerun changed the suite")
	}
	if e.cache.Len() != first.Stats.Classes {
		t.Fatalf("cache holds %d templates for %d classes", e.cache.Len(), first.Stats.Classes)
	}
}

// TestTemplateClassCompression: the point of the engine — class count must
// be far below valve count on a regular grid, with most vectors stamped
// from templates rather than solved.
func TestTemplateClassCompression(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 16, H: 16, Seed: 1})
	s, err := GenerateTemplates(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	nv := c.NumValves()
	if s.Stats.Classes*2 >= nv {
		t.Fatalf("no compression: %d classes for %d valves", s.Stats.Classes, nv)
	}
	if s.Stats.Instantiated < int64(nv) {
		t.Fatalf("only %d of %d vector slots instantiated (fallbacks %d)",
			s.Stats.Instantiated, 2*nv, s.Stats.Fallbacks)
	}
	if s.Stats.PathSolves+s.Stats.CutSolves >= int64(2*nv) {
		t.Fatalf("template engine solved %d times for %d valves",
			s.Stats.PathSolves+s.Stats.CutSolves, nv)
	}
}

// TestSuiteGenerationCancellation: a dead context aborts both engines.
func TestSuiteGenerationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := chip.FPVA(6, 6)
	if _, err := GenerateBaselineCtx(ctx, c, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("baseline ignored a cancelled context")
	}
	if _, err := NewTemplateEngine().GenerateCtx(ctx, c, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("template engine ignored a cancelled context")
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
