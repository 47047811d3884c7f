package lp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/lp"
	"repro/internal/testgen"
)

// warmWalk drives one Tableau through a seeded branch-and-bound-like
// sequence of fix/unfix steps on p, at most maxDepth fixings deep, and
// checks every SolveWarm against a cold SolveTab on a fresh Tableau.
// Halfway through it appends a row cutting off the current point, as a
// lazy cut does, so the walk also takes the cold fallback. It returns the
// pivots of the warm and of the cold solves.
func warmWalk(t *testing.T, id string, p *lp.Problem, seed int64, steps, maxDepth int) (warm, cold int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	base := p.DefaultOverrides()
	ov := p.DefaultOverrides()
	var fixed []int
	var last []float64 // the last warm optimum, empty after an infeasible step
	tab := lp.NewTableau()
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			sol, err := p.SolveTab(ctx, ov, lp.NewTableau())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			// A subtour-style cut over three variables, preferring ones
			// the current optimum sets, so that it cuts the optimum off.
			var terms []lp.Term
			for v := 0; v < p.NumVars() && len(terms) < 3; v++ {
				if sol.Status == lp.Optimal && sol.X[v] > 0.5 && rng.Intn(2) == 0 {
					terms = append(terms, lp.T(v, 1))
				}
			}
			for len(terms) < 3 {
				terms = append(terms, lp.T(rng.Intn(p.NumVars()), 1))
			}
			p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 2})
		}
		if len(fixed) > 0 && (len(fixed) == maxDepth || len(last) == 0 || rng.Intn(3) == 0) {
			v := fixed[len(fixed)-1]
			fixed = fixed[:len(fixed)-1]
			ov[v] = base[v]
		} else {
			// Mostly dive: fix a variable to its rounded value in the
			// last warm optimum, as a branch-and-bound child does.
			v := rng.Intn(p.NumVars())
			val := float64(rng.Intn(2))
			if len(last) > 0 && rng.Intn(3) > 0 {
				val = math.Round(math.Min(math.Max(last[v], 0), 1))
			}
			ov[v] = [2]float64{val, val}
			fixed = append(fixed, v)
		}
		got, err := p.SolveWarm(ctx, ov, tab)
		if err != nil {
			t.Fatalf("%s step %d: warm: %v", id, step, err)
		}
		want, err := p.SolveTab(ctx, ov, lp.NewTableau())
		if err != nil {
			t.Fatalf("%s step %d: cold: %v", id, step, err)
		}
		last = last[:0]
		if got.Status == lp.Optimal {
			last = append(last, got.X...)
		}
		warm += got.Pivots
		cold += want.Pivots
		if got.Status != want.Status || (want.Status == lp.Optimal && math.Abs(got.Obj-want.Obj) > 1e-6) {
			t.Fatalf("%s step %d: warm (%v, %v), cold (%v, %v)", id, step, got.Status, got.Obj, want.Status, want.Obj)
		}
	}
	return warm, cold
}

// SolveWarm must agree with a cold solve on status and objective along
// fix/unfix walks over the fixture's models: the paper's test-path ILPs,
// the test-cut set covers and the random mixed LPs, whose unbounded and
// pre-fixed columns exercise the infinite-bound fallback and nonzero
// shifts. The warm solves must also do less work than the cold ones,
// which a SolveWarm that always fell back would not.
func TestWarmMatchesCold(t *testing.T) {
	var warm, cold int
	walk := func(id string, p *lp.Problem, seed int64, steps, maxDepth int) {
		w, c := warmWalk(t, id, p, seed, steps, maxDepth)
		warm += w
		cold += c
	}
	for ci, mk := range []func() *chip.Chip{chip.IVD, chip.RA30, chip.MRNA} {
		c := mk()
		for _, nPaths := range []int{2, 3} {
			m, _ := testgen.PathILPModel(c, nPaths)
			walk(fmt.Sprintf("path/%s/P%d", c.Name, nPaths), m.P, int64(10*ci+nPaths), 100, 30)
		}
		aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
		if err != nil {
			t.Fatalf("augment %s: %v", c.Name, err)
		}
		m, err := testgen.CutCoverILPModel(aug.Chip, aug.Source, aug.Meter)
		if err != nil {
			t.Fatalf("cut cover %s: %v", c.Name, err)
		}
		walk("cut/"+c.Name, m.P, int64(100+ci), 100, 30)
	}
	for seed := int64(1); seed <= 40; seed++ {
		p := lp.RandomMixedLP(rand.New(rand.NewSource(seed)))
		walk(fmt.Sprintf("mixed/%d", seed), p, seed, 30, 6)
	}
	t.Logf("pivots: %d warm, %d cold", warm, cold)
	if 4*warm > cold {
		t.Fatalf("warm solves took %d pivots, cold ones %d: want at most a quarter", warm, cold)
	}
}
