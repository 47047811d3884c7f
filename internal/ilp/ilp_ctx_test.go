package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/lp"
)

// countdownCtx cancels after a fixed number of Err() polls — deterministic
// mid-search cancellation without wall-clock races.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// pollCounter counts context polls without ever cancelling.
type pollCounter struct {
	context.Context
	n int
}

func (c *pollCounter) Err() error {
	c.n++
	return nil
}

// hardKnapsack builds a correlated 0/1 knapsack: value tracks weight, so
// the LP bound is weak and the branch-and-bound explores many nodes.
func hardKnapsack(n int) *lp.Problem {
	p := lp.NewProblem(lp.Maximize)
	rng := rand.New(rand.NewSource(7))
	var terms []lp.Term
	total := 0
	for i := 0; i < n; i++ {
		w := 10 + rng.Intn(90)
		x := p.AddBinaryVar(float64(w+rng.Intn(10)), fmt.Sprintf("x%d", i))
		terms = append(terms, lp.T(x, float64(w)))
		total += w
	}
	p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(total / 2)})
	return p
}

func TestSolveCtxPreCancelledAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewModel(hardKnapsack(20)).SolveCtx(ctx, Options{})
	if err != nil {
		t.Fatalf("err = %v, want nil (cancellation is a budget, not a failure)", err)
	}
	if res.Status != Aborted {
		t.Fatalf("status = %v, want Aborted", res.Status)
	}
	if res.Nodes != 0 {
		t.Fatalf("explored %d nodes under a pre-cancelled context, want 0", res.Nodes)
	}
}

func TestSolveCtxMidSearchCancellation(t *testing.T) {
	// Probe how often the search polls the context on this instance, then
	// cancel halfway: the solve must stop within one node, return a nil
	// error, and report Feasible (incumbent found) or Aborted — never hang
	// and never claim Optimal/Infeasible.
	p := hardKnapsack(26)
	m := NewModel(p)
	probe := &pollCounter{Context: context.Background()}
	full, err := m.SolveCtx(probe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("reference solve: status = %v, want Optimal", full.Status)
	}
	if probe.n < 4 {
		t.Fatalf("instance too easy to cancel mid-search: %d context polls", probe.n)
	}

	ctx := &countdownCtx{Context: context.Background(), remaining: probe.n / 2}
	res, err := m.SolveCtx(ctx, Options{})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if res.Status != Feasible && res.Status != Aborted {
		t.Fatalf("status = %v, want Feasible or Aborted", res.Status)
	}
	if res.Nodes == 0 || res.Nodes >= full.Nodes {
		t.Fatalf("explored %d nodes (full search: %d), want a strict mid-search stop", res.Nodes, full.Nodes)
	}
	if res.Status == Feasible && sign(p)*res.Obj < sign(p)*full.Obj-1e-6 {
		t.Fatalf("incumbent obj %v beats the optimum %v", res.Obj, full.Obj)
	}
}

func sign(p *lp.Problem) float64 {
	if p.Sense() == lp.Maximize {
		return -1
	}
	return 1
}

func TestSolveCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := NewModel(hardKnapsack(15)).SolveCtx(ctx, Options{}); err != nil {
			t.Fatal(err)
		}
		ctx2 := &countdownCtx{Context: context.Background(), remaining: 5}
		if _, err := NewModel(hardKnapsack(15)).SolveCtx(ctx2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across cancelled solves", before, after)
	}
}
