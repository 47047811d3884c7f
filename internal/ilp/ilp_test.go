package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 8 -> a=c=1, obj 14
	// (a+b would weigh 9 > 8).
	p := lp.NewProblem(lp.Maximize)
	a := p.AddBinaryVar(10, "a")
	b := p.AddBinaryVar(6, "b")
	c := p.AddBinaryVar(4, "c")
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(a, 1), lp.T(b, 1), lp.T(c, 1)}, Rel: lp.LE, RHS: 2})
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(a, 5), lp.T(b, 4), lp.T(c, 3)}, Rel: lp.LE, RHS: 8})
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-14) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 14", res.Status, res.Obj)
	}
	if res.X[a] != 1 || res.X[b] != 0 || res.X[c] != 1 {
		t.Fatalf("x = %v, want [1 0 1]", res.X)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	a := p.AddBinaryVar(1, "a")
	b := p.AddBinaryVar(1, "b")
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(a, 1), lp.T(b, 1)}, Rel: lp.GE, RHS: 3})
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", res.Status)
	}
}

func TestFractionalLPForcesBranching(t *testing.T) {
	// max a+b s.t. a+b <= 1.5: LP gives 1.5 fractional; ILP optimum is 1.
	p := lp.NewProblem(lp.Maximize)
	a := p.AddBinaryVar(1, "a")
	b := p.AddBinaryVar(1, "b")
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(a, 1), lp.T(b, 1)}, Rel: lp.LE, RHS: 1.5})
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-1) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 1", res.Status, res.Obj)
	}
}

func TestEvenSumViaEqualityAux(t *testing.T) {
	// min a+b+c s.t. a+b+c = 2k (k binary), a >= 1: forces exactly 2 ones
	// (a plus one more) when minimized with a = 1 fixed by bounds.
	p := lp.NewProblem(lp.Minimize)
	a := p.AddVar(1, 1, 1, "a") // fixed to 1
	b := p.AddBinaryVar(1, "b")
	c := p.AddBinaryVar(1, "c")
	k := p.AddBinaryVar(0, "k")
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(a, 1), lp.T(b, 1), lp.T(c, 1), lp.T(k, -2)}, Rel: lp.EQ, RHS: 0})
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-2) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want 2", res.Status, res.Obj)
	}
}

func TestLazyConstraintRejection(t *testing.T) {
	// max a + b, free; lazy callback forbids (1,1), so optimum becomes 1.
	p := lp.NewProblem(lp.Maximize)
	a := p.AddBinaryVar(1, "a")
	b := p.AddBinaryVar(1, "b")
	calls := 0
	res, err := NewModel(p).Solve(Options{
		Lazy: func(x []float64) []lp.Constraint {
			calls++
			if x[a] > 0.5 && x[b] > 0.5 {
				return []lp.Constraint{{Terms: []lp.Term{lp.T(a, 1), lp.T(b, 1)}, Rel: lp.LE, RHS: 1}}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-1) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 1", res.Status, res.Obj)
	}
	if res.LazyCuts != 1 {
		t.Fatalf("LazyCuts = %d, want 1", res.LazyCuts)
	}
	if calls < 2 {
		t.Fatalf("lazy callback calls = %d, want >= 2", calls)
	}
}

func TestNodeBudgetAborts(t *testing.T) {
	// A model whose LP is fractional everywhere; with MaxNodes=1 the search
	// cannot complete and must not report Optimal.
	p := lp.NewProblem(lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 6; i++ {
		v := p.AddBinaryVar(1, "v")
		terms = append(terms, lp.Term{Var: v, Coef: 1})
	}
	p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 2.5})
	res, err := NewModel(p).Solve(Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal {
		t.Fatalf("status=%v with MaxNodes=1; optimality cannot be proven", res.Status)
	}
}

func TestNonBinaryBoundsRejected(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	p.AddVar(1, 0, 5, "wide")
	if _, err := NewModel(p).Solve(Options{}); err == nil {
		t.Fatal("expected error for non-binary variable bounds")
	}
}

func TestSetCoverSmall(t *testing.T) {
	// Universe {1,2,3}; sets A={1,2}, B={2,3}, C={3}; min cover = {A,B} = 2.
	p := lp.NewProblem(lp.Minimize)
	A := p.AddBinaryVar(1, "A")
	B := p.AddBinaryVar(1, "B")
	C := p.AddBinaryVar(1, "C")
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(A, 1)}, Rel: lp.GE, RHS: 1})             // elem 1
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(A, 1), lp.T(B, 1)}, Rel: lp.GE, RHS: 1}) // elem 2
	p.AddConstraint(lp.Constraint{Terms: []lp.Term{lp.T(B, 1), lp.T(C, 1)}, Rel: lp.GE, RHS: 1}) // elem 3
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-2) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want 2", res.Status, res.Obj)
	}
}

// Property: ILP optimum of a random knapsack matches exhaustive enumeration.
func TestKnapsackMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7) // up to 8 items: enumerable
		value := make([]float64, n)
		weight := make([]float64, n)
		for i := range value {
			value[i] = float64(1 + rng.Intn(20))
			weight[i] = float64(1 + rng.Intn(10))
		}
		capacity := float64(5 + rng.Intn(25))
		p := lp.NewProblem(lp.Maximize)
		var terms []lp.Term
		for i := 0; i < n; i++ {
			v := p.AddBinaryVar(value[i], "x")
			terms = append(terms, lp.Term{Var: v, Coef: weight[i]})
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: capacity})
		res, err := NewModel(p).Solve(Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weight[i]
					v += value[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		return math.Abs(res.Obj-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: solutions returned are always exactly 0/1 and satisfy all
// constraints.
func TestSolutionIntegralityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := lp.NewProblem(lp.Maximize)
		for i := 0; i < n; i++ {
			p.AddBinaryVar(rng.Float64()*5, "x")
		}
		var terms []lp.Term
		for i := 0; i < n; i++ {
			terms = append(terms, lp.Term{Var: i, Coef: 1 + rng.Float64()*2})
		}
		rhs := 1 + rng.Float64()*float64(n)
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: rhs})
		res, err := NewModel(p).Solve(Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		lhs := 0.0
		for i, v := range res.X {
			if v != 0 && v != 1 {
				return false
			}
			lhs += terms[i].Coef * v
		}
		return lhs <= rhs+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible", Aborted: "aborted",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
	if Status(42).String() != "unknown" {
		t.Fatal("unknown status string")
	}
}

func TestMaximizeSenseRoundTrip(t *testing.T) {
	// Maximization results must come back in maximize space.
	p := lp.NewProblem(lp.Maximize)
	a := p.AddBinaryVar(3, "a")
	b := p.AddBinaryVar(2, "b")
	_ = a
	_ = b
	res, err := NewModel(p).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-5) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want 5", res.Status, res.Obj)
	}
}
