package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// mostFractional must break ties toward the lowest variable index.
func TestMostFractionalTieBreak(t *testing.T) {
	cases := []struct {
		x    []float64
		want int
	}{
		{[]float64{0, 1, 0}, -1},
		{[]float64{0.5, 0.5, 0.5}, 0},
		{[]float64{0.1, 0.5, 0.5}, 1},
		{[]float64{0.6, 0.4, 1}, 0}, // equal distance 0.4: lowest index wins
		{[]float64{0.2, 0.8}, 0},    // equal distance 0.2: lowest index wins
		{[]float64{1, 0.75, 0.25}, 1},
	}
	for _, c := range cases {
		if got := mostFractional(c.x); got != c.want {
			t.Errorf("mostFractional(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// Property: the serial search is deterministic — repeated solves of an
// identical model agree on everything, including the node count and the
// exact solution vector (branching and search order are functions of the
// model alone).
func TestSerialSearchDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		first, err := NewModel(randomCoverModel(seed)).Solve(Options{})
		if err != nil {
			return false
		}
		for rep := 0; rep < 3; rep++ {
			got, err := NewModel(randomCoverModel(seed)).Solve(Options{})
			if err != nil {
				return false
			}
			if got.Status != first.Status || got.Obj != first.Obj || got.Nodes != first.Nodes {
				return false
			}
			for i := range got.X {
				if got.X[i] != first.X[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomCoverModel builds a random set-cover-like minimization with distinct
// costs (so branching has work to do but the optimum is usually unique).
func randomCoverModel(seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(lp.Minimize)
	n := 4 + rng.Intn(5)
	for i := 0; i < n; i++ {
		p.AddBinaryVar(1+float64(i)*0.13+rng.Float64(), "s")
	}
	m := 2 + rng.Intn(4)
	for k := 0; k < m; k++ {
		var terms []lp.Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, lp.T(i, 1))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.T(rng.Intn(n), 1))
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 1})
	}
	return p
}

// The search must agree with the preserved seed engine, bit for bit on
// X, on a hard model and on random covers (distinct costs, so optima are
// unique).
func TestMatchesBaselineHardModel(t *testing.T) {
	check := func(id string, mk func() *lp.Problem) {
		t.Helper()
		got, err := NewModel(mk()).Solve(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, err := NewModel(mk()).SolveBaseline(Options{})
		if err != nil {
			t.Fatalf("%s: baseline: %v", id, err)
		}
		if got.Status != want.Status || math.Abs(got.Obj-want.Obj) > 1e-6 {
			t.Fatalf("%s: (status, obj) = (%v, %v), baseline (%v, %v)", id, got.Status, got.Obj, want.Status, want.Obj)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("%s: X = %v, baseline %v", id, got.X, want.X)
			}
		}
	}
	check("knapsack22", func() *lp.Problem { return hardKnapsack(22) })
	for seed := int64(1); seed <= 40; seed++ {
		check(fmt.Sprintf("cover%d", seed), func() *lp.Problem { return randomCoverModel(seed) })
	}
}

// Lazy cuts: the first integer point is rejected by the callback, the node
// is requeued under the cut, and the search converges to the cheapest
// solution the callback accepts.
func TestLazyCutConvergence(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	costs := []float64{1, 1.01, 1.02, 1.03}
	var terms []lp.Term
	for i, c := range costs {
		p.AddBinaryVar(c, "x")
		terms = append(terms, lp.T(i, 1))
	}
	p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 2})
	lazy := func(x []float64) []lp.Constraint {
		if x[0] > 0.5 {
			// Reject any solution using x0 by cutting it away.
			return []lp.Constraint{{Terms: []lp.Term{lp.T(0, 1)}, Rel: lp.LE, RHS: 0}}
		}
		return nil
	}
	res, err := NewModel(p).Solve(Options{Lazy: lazy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-2.03) > 1e-9 {
		t.Fatalf("(status, obj) = (%v, %v), want (optimal, 2.03)", res.Status, res.Obj)
	}
	want := []float64{0, 1, 1, 0} // cheapest pair without x0
	for i := range want {
		if res.X[i] != want[i] {
			t.Fatalf("X = %v, want %v", res.X, want)
		}
	}
	if res.LazyCuts < 1 || res.Stats.Requeued < 1 {
		t.Fatalf("LazyCuts = %d, Requeued = %d, want >= 1 each", res.LazyCuts, res.Stats.Requeued)
	}
}
