package lp_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/lp"
	"repro/internal/testgen"
)

// smallCover is a 12-variable, 6-row all-binary covering LP.
func smallCover() *lp.Problem {
	p := lp.NewProblem(lp.Minimize)
	n := 12
	for i := 0; i < n; i++ {
		p.AddBinaryVar(float64(i%3)+1, "b")
	}
	for k := 0; k < 6; k++ {
		var terms []lp.Term
		for i := 0; i < n; i++ {
			terms = append(terms, lp.T(i, float64((i+k)%4)))
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 2})
	}
	return p
}

// A warm Tableau must not allocate: neither re-solving the small model it
// was first sized by, nor — once grown from it — solving IVD's test-path
// ILP under branch-and-bound fixings, where the matrix, its bitmaps and
// the per-iteration index lists are at real size, alternating with the
// small model again.
func TestSolveTabWarmAllocFree(t *testing.T) {
	ctx := context.Background()
	tab := lp.NewTableau()
	solve := func(p *lp.Problem, ov [][2]float64) {
		if _, err := p.SolveTab(ctx, ov, tab); err != nil {
			t.Fatal(err)
		}
	}
	small := smallCover()
	smallOv := small.DefaultOverrides()
	solve(small, smallOv)
	if allocs := testing.AllocsPerRun(20, func() { solve(small, smallOv) }); allocs > 0 {
		t.Fatalf("warm SolveTab allocates %v objects per small solve, want 0", allocs)
	}

	ivd, _ := testgen.PathILPModel(chip.IVD(), 2)
	rng := rand.New(rand.NewSource(1))
	fixings := make([][][2]float64, 8)
	for i := range fixings {
		fixings[i] = randomFixings(rng, ivd.P, 24)
		solve(ivd.P, fixings[i]) // grows the tableau
	}
	k := 0
	allocs := testing.AllocsPerRun(20, func() {
		solve(ivd.P, fixings[k%len(fixings)])
		solve(small, smallOv)
		k++
	})
	if allocs > 0 {
		t.Fatalf("warm SolveTab allocates %v objects per IVD+small solve pair, want 0", allocs)
	}
}
