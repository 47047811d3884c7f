package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMixedLP builds a random feasible-or-not LP mixing senses, relations
// and bound styles (binary, wide, unbounded-above, fixed).
func randomMixedLP(rng *rand.Rand) *Problem {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		obj := rng.Float64()*10 - 5
		switch rng.Intn(4) {
		case 0:
			p.AddBinaryVar(obj, "b")
		case 1:
			p.AddVar(obj, 0, 1+rng.Float64()*5, "w")
		case 2:
			// Unbounded above only with a positive minimize cost (or
			// negative maximize profit), so the LP stays bounded.
			c := 0.1 + rng.Float64()*5
			if sense == Maximize {
				c = -c
			}
			p.AddVar(c, 0, math.Inf(1), "inf")
		default:
			v := rng.Float64() * 2
			p.AddVar(obj, v, v, "fix")
		}
	}
	m := 1 + rng.Intn(4)
	for k := 0; k < m; k++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, T(i, rng.Float64()*4-1))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(rng.Intn(n), 1))
		}
		rel := Rel(rng.Intn(3))
		p.AddConstraint(Constraint{Terms: terms, Rel: rel, RHS: rng.Float64()*6 - 2})
	}
	return p
}

// Property: the production bounded-variable engine agrees with the seed
// baseline simplex on status and optimal objective (optimal vertices may
// legitimately differ when the optimum face is degenerate, so X is only
// checked for feasibility via the matching objective).
func TestBoundedMatchesBaselineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomMixedLP(rng)
		got, gotErr := p.Solve(nil)
		want, wantErr := p.SolveBaseline(nil)
		if (gotErr == nil) != (wantErr == nil) {
			return false
		}
		if got.Status != want.Status {
			return false
		}
		if got.Status != Optimal {
			return true
		}
		return math.Abs(got.Obj-want.Obj) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomFixedBinaryLP builds a random all-binary LP together with
// overrides fixing a random subset of its variables (the branch-and-bound
// access pattern).
func randomFixedBinaryLP(rng *rand.Rand) (*Problem, [][2]float64) {
	p := NewProblem(Minimize)
	n := 3 + rng.Intn(5)
	for i := 0; i < n; i++ {
		p.AddBinaryVar(rng.Float64()*4-1, "b")
	}
	for k := 0; k < 2+rng.Intn(3); k++ {
		var terms []Term
		for i := 0; i < n; i++ {
			terms = append(terms, T(i, rng.Float64()*3-1))
		}
		p.AddConstraint(Constraint{Terms: terms, Rel: Rel(rng.Intn(3)), RHS: rng.Float64() * 2})
	}
	ov := p.DefaultOverrides()
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			v := float64(rng.Intn(2))
			ov[i] = [2]float64{v, v}
		}
	}
	return p, ov
}

// Property: with overrides fixing a random subset of binaries, the engines
// still agree.
func TestBoundedMatchesBaselineWithOverridesProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, ov := randomFixedBinaryLP(rand.New(rand.NewSource(seed)))
		got, err1 := p.Solve(ov)
		want, err2 := p.SolveBaseline(ov)
		if (err1 == nil) != (err2 == nil) || got.Status != want.Status {
			return false
		}
		return got.Status != Optimal || math.Abs(got.Obj-want.Obj) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A reused Tableau must be fully re-initialized per solve: different
// problems and different override sets through one scratch.
func TestTableauReuseAcrossProblems(t *testing.T) {
	tab := NewTableau()

	p1 := NewProblem(Maximize)
	a := p1.AddBinaryVar(3, "a")
	b := p1.AddBinaryVar(2, "b")
	p1.AddConstraint(Constraint{Terms: []Term{T(a, 1), T(b, 1)}, Rel: LE, RHS: 1})
	sol, err := p1.SolveTab(context.Background(), nil, tab)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-3) > 1e-6 {
		t.Fatalf("p1: sol=%+v err=%v, want optimal 3", sol, err)
	}

	p2 := NewProblem(Minimize)
	x := p2.AddVar(1, 0, 10, "x")
	y := p2.AddVar(2, 0, 10, "y")
	p2.AddConstraint(Constraint{Terms: []Term{T(x, 1), T(y, 1)}, Rel: GE, RHS: 4})
	p2.AddConstraint(Constraint{Terms: []Term{T(x, 1)}, Rel: LE, RHS: 1})
	sol, err = p2.SolveTab(context.Background(), nil, tab)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-7) > 1e-6 {
		t.Fatalf("p2: sol=%+v err=%v, want optimal 7 (x=1, y=3)", sol, err)
	}
	if math.Abs(sol.X[x]-1) > 1e-6 || math.Abs(sol.X[y]-3) > 1e-6 {
		t.Fatalf("p2: X=%v, want [1 3]", sol.X)
	}

	// Same problem again with overrides fixing x to 0.
	ov := p2.DefaultOverrides()
	ov[x] = [2]float64{0, 0}
	sol, err = p2.SolveTab(context.Background(), ov, tab)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Obj-8) > 1e-6 {
		t.Fatalf("p2 fixed: sol=%+v err=%v, want optimal 8 (y=4)", sol, err)
	}
}

// Solutions from SolveTab alias the scratch: the previous X is rewritten
// by the next solve. This pins the documented contract.
func TestSolveTabAliasesScratch(t *testing.T) {
	tab := NewTableau()
	p := NewProblem(Maximize)
	a := p.AddBinaryVar(1, "a")
	p.AddConstraint(Constraint{Terms: []Term{T(a, 1)}, Rel: LE, RHS: 1})
	s1, err := p.SolveTab(context.Background(), nil, tab)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.SolveTab(context.Background(), nil, tab)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.X[0] != &s2.X[0] {
		t.Fatal("SolveTab should reuse the scratch solution buffer")
	}
}

func TestSolveTabNilTableau(t *testing.T) {
	p := NewProblem(Maximize)
	a := p.AddBinaryVar(2, "a")
	sol, err := p.SolveTab(context.Background(), nil, nil)
	if err != nil || sol.Status != Optimal || sol.X[a] != 1 {
		t.Fatalf("sol=%+v err=%v, want optimal with a=1", sol, err)
	}
}
