package ilp

import (
	"testing"
)

// nodeAllocBudget is the allocation-regression ceiling asserted per
// branch-and-bound node on a warm serial solve. Each expanded node costs at
// most two child bbNode structs plus amortized frontier growth; the seed
// engine spent ~30 allocations per node (copied fixing slices, a fresh
// override slice and a fresh LP tableau per relaxation), so this budget
// also locks in the >=5x reduction the rewrite claims.
const nodeAllocBudget = 6.0

func TestNodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget asserted in non-race CI")
	}
	m := NewModel(hardKnapsack(20))
	// Warm the tableau pool so the measured runs reuse scratch.
	warm, err := m.Solve(Options{})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warmup: %+v err=%v", warm, err)
	}
	var nodes int
	allocs := testing.AllocsPerRun(10, func() {
		res, err := m.Solve(Options{})
		if err != nil || res.Status != Optimal {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		nodes = res.Nodes
	})
	if nodes == 0 {
		t.Fatal("no nodes explored")
	}
	perNode := allocs / float64(nodes)
	t.Logf("allocs/op=%v nodes=%d allocs/node=%.2f (budget %.1f)", allocs, nodes, perNode, nodeAllocBudget)
	if perNode > nodeAllocBudget {
		t.Fatalf("allocation regression: %.2f allocs per node, budget %.1f", perNode, nodeAllocBudget)
	}
}

// BenchmarkSolvePerNode and BenchmarkSolveBaselinePerNode expose the
// per-node cost of the production engine against the preserved seed engine
// on the same model (cmd/bench -mode ilp compares worker counts on the
// paper's chips).
func BenchmarkSolvePerNode(b *testing.B) {
	m := NewModel(hardKnapsack(20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(Options{})
		if err != nil || res.Status != Optimal {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

func BenchmarkSolveBaselinePerNode(b *testing.B) {
	m := NewModel(hardKnapsack(20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveBaseline(Options{})
		if err != nil || res.Status != Optimal {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}
