package ilp

import (
	"context"
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

// Property: an exhausted search returns identical (Status, X, Obj) for
// every worker count — the tentpole determinism guarantee.
func TestWorkerCountDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		ref, err := NewModel(randomCoverModel(seed)).Solve(Options{Workers: 1})
		if err != nil || ref.Status != Optimal {
			return err == nil && ref.Status == Infeasible
		}
		for _, w := range []int{2, 4, 8} {
			got, err := NewModel(randomCoverModel(seed)).Solve(Options{Workers: w})
			if err != nil {
				return false
			}
			if got.Status != ref.Status || got.Obj != ref.Obj {
				return false
			}
			for i := range got.X {
				if got.X[i] != ref.X[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// A parallel solve on a hard model must agree with the serial solve and
// with the preserved seed engine, bit for bit.
func TestParallelMatchesSerialAndBaselineHardModel(t *testing.T) {
	serial, err := NewModel(hardKnapsack(22)).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(hardKnapsack(22)).SolveBaseline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Status != Optimal || base.Status != Optimal {
		t.Fatalf("status serial=%v baseline=%v, want optimal", serial.Status, base.Status)
	}
	if math.Abs(serial.Obj-base.Obj) > 1e-6 {
		t.Fatalf("obj serial=%v baseline=%v", serial.Obj, base.Obj)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := NewModel(hardKnapsack(22)).Solve(Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if par.Status != serial.Status || par.Obj != serial.Obj {
			t.Fatalf("workers=%d: (status, obj) = (%v, %v), want (%v, %v)",
				w, par.Status, par.Obj, serial.Status, serial.Obj)
		}
		for i := range par.X {
			if par.X[i] != serial.X[i] {
				t.Fatalf("workers=%d: X[%d] = %v, want %v", w, i, par.X[i], serial.X[i])
			}
		}
	}
}

// Lazy cuts under parallelism: the first integer point is rejected by the
// callback, and the search must converge to the same accepted solution at 1
// and 8 workers. The model has distinct costs so the accepted optimum is
// unique (the condition under which the parallel lazy guarantee holds).
func TestLazyCutParallelConvergence(t *testing.T) {
	build := func() (*Model, Options, int) {
		p := lp.NewProblem(lp.Minimize)
		costs := []float64{1, 1.01, 1.02, 1.03}
		for _, c := range costs {
			p.AddBinaryVar(c, "x")
		}
		var terms []lp.Term
		for i := range costs {
			terms = append(terms, lp.T(i, 1))
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 2})
		x0 := 0
		lazy := func(x []float64) []lp.Constraint {
			if x[x0] > 0.5 {
				// Reject any solution using x0 by cutting it away.
				return []lp.Constraint{{Terms: []lp.Term{lp.T(x0, 1)}, Rel: lp.LE, RHS: 0}}
			}
			return nil
		}
		return NewModel(p), Options{Lazy: lazy}, x0
	}

	want := []float64{0, 1, 1, 0} // cheapest pair without x0
	for _, w := range []int{1, 8} {
		m, opts, _ := build()
		opts.Workers = w
		res, err := m.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("workers=%d: status = %v, want optimal", w, res.Status)
		}
		if math.Abs(res.Obj-2.03) > 1e-9 {
			t.Fatalf("workers=%d: obj = %v, want 2.03", w, res.Obj)
		}
		for i := range want {
			if res.X[i] != want[i] {
				t.Fatalf("workers=%d: X = %v, want %v", w, res.X, want)
			}
		}
		if res.LazyCuts < 1 {
			t.Fatalf("workers=%d: LazyCuts = %d, want >= 1", w, res.LazyCuts)
		}
		if res.Stats.Requeued < 1 {
			t.Fatalf("workers=%d: Stats.Requeued = %d, want >= 1", w, res.Stats.Requeued)
		}
	}
}

// Parallel statistics must be internally consistent: the resolved worker
// count is reported and the per-worker node counts sum to Result.Nodes.
func TestParallelStatsConsistent(t *testing.T) {
	res, err := NewModel(hardKnapsack(22)).Solve(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", res.Stats.Workers)
	}
	if len(res.Stats.NodesPerWorker) != 4 {
		t.Fatalf("len(NodesPerWorker) = %d, want 4", len(res.Stats.NodesPerWorker))
	}
	sum := 0
	for _, c := range res.Stats.NodesPerWorker {
		sum += c
	}
	if sum != res.Nodes {
		t.Fatalf("sum(NodesPerWorker) = %d, want Nodes = %d", sum, res.Nodes)
	}
}

// A serial run reports serial stats.
func TestSerialStats(t *testing.T) {
	res, err := NewModel(hardKnapsack(12)).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 1 || st.Steals != 0 || st.IdleWaits != 0 {
		t.Fatalf("serial stats = %+v, want workers 1, no steals/idle waits", st)
	}
	if len(st.NodesPerWorker) != 1 || st.NodesPerWorker[0] != res.Nodes {
		t.Fatalf("NodesPerWorker = %v, want [%d]", st.NodesPerWorker, res.Nodes)
	}
}

// Cancellation during a parallel solve must behave like the serial budget
// semantics: nil error, incumbent (if any) kept, all workers terminated.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewModel(hardKnapsack(22)).SolveCtx(ctx, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Aborted {
		t.Fatalf("status = %v, want aborted on pre-cancelled parallel solve", res.Status)
	}
}
