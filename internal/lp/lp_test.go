package lp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), obj 36.
	p := NewProblem(Maximize)
	x := p.AddVar(3, 0, math.Inf(1), "x")
	y := p.AddVar(5, 0, math.Inf(1), "y")
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Rel: LE, RHS: 4})
	p.AddConstraint(Constraint{Terms: []Term{{y, 2}}, Rel: LE, RHS: 12})
	p.AddConstraint(Constraint{Terms: []Term{{x, 3}, {y, 2}}, Rel: LE, RHS: 18})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 36) {
		t.Fatalf("status=%v obj=%v, want optimal 36", sol.Status, sol.Obj)
	}
	if !near(sol.X[x], 2) || !near(sol.X[y], 6) {
		t.Fatalf("x=%v y=%v, want (2,6)", sol.X[x], sol.X[y])
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4-?) LP: put all weight on x
	// since it is cheaper: x=4? but x>=1 only. Optimal x=4, y=0, obj 8.
	p := NewProblem(Minimize)
	x := p.AddVar(2, 1, math.Inf(1), "x")
	y := p.AddVar(3, 0, math.Inf(1), "y")
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Rel: GE, RHS: 4})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 8) {
		t.Fatalf("status=%v obj=%v, want optimal 8", sol.Status, sol.Obj)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + y = 5, x - y = 1 -> (3,2), obj 5.
	p := NewProblem(Minimize)
	x := p.AddVar(1, 0, math.Inf(1), "x")
	y := p.AddVar(1, 0, math.Inf(1), "y")
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Rel: EQ, RHS: 5})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, -1}}, Rel: EQ, RHS: 1})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.X[x], 3) || !near(sol.X[y], 2) {
		t.Fatalf("status=%v x=%v y=%v", sol.Status, sol.X[x], sol.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar(1, 0, 1, "x")
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Rel: GE, RHS: 2})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1, 0, math.Inf(1), "x")
	_ = x
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status=%v, want unbounded", sol.Status)
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// max x + y with x <= 0.5, y <= 0.25 via bounds only.
	p := NewProblem(Maximize)
	p.AddVar(1, 0, 0.5, "x")
	p.AddVar(1, 0, 0.25, "y")
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 0.75) {
		t.Fatalf("status=%v obj=%v, want 0.75", sol.Status, sol.Obj)
	}
}

func TestNonzeroLowerBoundShift(t *testing.T) {
	// min x s.t. x >= 2 via bounds: optimal 2.
	p := NewProblem(Minimize)
	p.AddVar(1, 2, 10, "x")
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 2) || !near(sol.X[0], 2) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X[0])
	}
}

func TestOverridesFixVariable(t *testing.T) {
	// max x + y, x,y in [0,1]; fix x = 0 via override -> obj 1.
	p := NewProblem(Maximize)
	x := p.AddBinaryVar(1, "x")
	y := p.AddBinaryVar(1, "y")
	ov := p.DefaultOverrides()
	ov[x] = [2]float64{0, 0}
	sol, err := p.Solve(ov)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 1) || !near(sol.X[x], 0) || !near(sol.X[y], 1) {
		t.Fatalf("status=%v obj=%v x=%v y=%v", sol.Status, sol.Obj, sol.X[x], sol.X[y])
	}
}

func TestOverridesInfeasibleBounds(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddBinaryVar(1, "x")
	ov := p.DefaultOverrides()
	ov[0] = [2]float64{1, 0}
	sol, err := p.Solve(ov)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem(Minimize)
	x := p.AddVar(1, 0, math.Inf(1), "x")
	p.AddConstraint(Constraint{Terms: []Term{{x, -1}}, Rel: LE, RHS: -3})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.X[x], 3) {
		t.Fatalf("status=%v x=%v, want 3", sol.Status, sol.X[x])
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1.
	p := NewProblem(Minimize)
	x := p.AddVar(1, 0, 10, "x")
	y := p.AddVar(2, 0, 10, "y")
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Rel: EQ, RHS: 4})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Rel: EQ, RHS: 4})
	p.AddConstraint(Constraint{Terms: []Term{{x, 2}, {y, 2}}, Rel: EQ, RHS: 8})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 4) {
		t.Fatalf("status=%v obj=%v, want 4 (x=4,y=0)", sol.Status, sol.Obj)
	}
}

func TestPathLPIsIntegral(t *testing.T) {
	// Shortest-path LP on a 4-cycle: nodes 0..3, edges (0-1),(1-2),(2-3),(3-0).
	// min sum(e) s.t. degree(0)=degree(2)=1, degree(1)=degree(3) even (0 or 2
	// relaxed to = 2*n_i with n_i binary). Expect obj 2 (either side).
	p := NewProblem(Minimize)
	e01 := p.AddBinaryVar(1, "e01")
	e12 := p.AddBinaryVar(1, "e12")
	e23 := p.AddBinaryVar(1, "e23")
	e30 := p.AddBinaryVar(1, "e30")
	n1 := p.AddBinaryVar(0, "n1")
	n3 := p.AddBinaryVar(0, "n3")
	p.AddConstraint(Constraint{Terms: []Term{{e01, 1}, {e30, 1}}, Rel: EQ, RHS: 1})
	p.AddConstraint(Constraint{Terms: []Term{{e12, 1}, {e23, 1}}, Rel: EQ, RHS: 1})
	p.AddConstraint(Constraint{Terms: []Term{{e01, 1}, {e12, 1}, {n1, -2}}, Rel: EQ, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{e23, 1}, {e30, 1}, {n3, -2}}, Rel: EQ, RHS: 0})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !near(sol.Obj, 2) {
		t.Fatalf("status=%v obj=%v, want 2", sol.Status, sol.Obj)
	}
}

// Property: for random feasible LPs built as A x <= b with x in [0,1], the
// simplex solution satisfies every constraint and the bounds.
func TestRandomLPFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := NewProblem(Maximize)
		for i := 0; i < n; i++ {
			p.AddBinaryVar(rng.Float64()*4-2, "v")
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, rng.Float64() * 3})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{0, 1})
			}
			// RHS >= 0 keeps x = 0 feasible.
			p.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: rng.Float64() * 2})
		}
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			return false
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-7 || sol.X[j] > 1+1e-7 {
				return false
			}
		}
		for _, c := range p.cons {
			lhs := 0.0
			for _, term := range c.Terms {
				lhs += term.Coef * sol.X[term.Var]
			}
			if lhs > c.RHS+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: optimum of a maximization over [0,1]^n with only bound
// constraints equals the sum of positive objective coefficients.
func TestBoxOptimumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		p := NewProblem(Maximize)
		want := 0.0
		for i := 0; i < n; i++ {
			c := rng.Float64()*6 - 3
			p.AddBinaryVar(c, "v")
			if c > 0 {
				want += c
			}
		}
		sol, err := p.Solve(nil)
		return err == nil && sol.Status == Optimal && near(sol.Obj, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVarNameAndCounts(t *testing.T) {
	p := NewProblem(Minimize)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, `"beta"`) {
				t.Errorf("empty-range panic %q does not name the variable", msg)
			}
		}()
		p.AddVar(1, 1, 0, "beta")
	}()
	i := p.AddVar(1, 0, 1, "alpha")
	if p.NumVars() != 1 || p.NumConstraints() != 0 {
		t.Fatalf("counts: vars=%d cons=%d", p.NumVars(), p.NumConstraints())
	}
	lb, ub := p.Bounds(i)
	if lb != 0 || ub != 1 {
		t.Fatalf("bounds = [%v,%v]", lb, ub)
	}
	if p.Sense() != Minimize {
		t.Fatalf("sense = %v", p.Sense())
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("Rel.String mismatch")
	}
	if Rel(99).String() != "?" {
		t.Fatal("unknown Rel should stringify to ?")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(99).String() != "unknown" {
		t.Fatal("unknown status should stringify to unknown")
	}
}

// A constraint term naming a variable the problem does not have is
// reported as an error by every solve entry point, not a panic.
func TestOutOfRangeTermIsAnError(t *testing.T) {
	for _, v := range []int{-1, 1} {
		p := NewProblem(Minimize)
		p.AddBinaryVar(1, "x")
		p.AddConstraint(Constraint{Terms: []Term{{v, 1}}, Rel: LE, RHS: 1})
		if _, err := p.Solve(nil); err == nil {
			t.Errorf("Solve with term var %d: no error", v)
		}
		if _, err := p.SolveBaseline(nil); err == nil {
			t.Errorf("SolveBaseline with term var %d: no error", v)
		}
	}
}
