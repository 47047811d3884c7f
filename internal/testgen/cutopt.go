package testgen

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// DefaultCutILPMaxNodes caps the set-cover branch-and-bound when
// Options.ILPMaxNodes is 0.
const DefaultCutILPMaxNodes = 4000

// GenerateCutsOptimal produces a minimum-cardinality set of test-cut
// vectors between ports src and dst covering the stuck-at-1 fault of every
// valve. The paper notes that finding the minimum set of test cuts is "a
// complementary problem of the test path generation" solved with the same
// machinery; this implementation enumerates several candidate cuts per
// valve (the greedy generator's plus structural alternatives) and solves
// the exact set-cover ILP with the same branch-and-bound engine as the
// path ILP. GenerateCuts remains the fast greedy variant used inside the
// PSO loop.
func GenerateCutsOptimal(c *chip.Chip, src, dst int) ([]fault.Vector, error) {
	return GenerateCutsOptimalCtx(context.Background(), c, src, dst, Options{})
}

// GenerateCutsOptimalCtx is GenerateCutsOptimal with cooperative
// cancellation and tunable solver budget (Options.ILPMaxNodes; 0 means
// DefaultCutILPMaxNodes). When the set-cover ILP runs out of budget it
// falls back to the greedy cover; when the context is cancelled it returns
// the context's error.
func GenerateCutsOptimalCtx(ctx context.Context, c *chip.Chip, src, dst int, opts Options) ([]fault.Vector, error) {
	p, pool, vars, err := buildCutCoverILP(c, src, dst)
	if err != nil {
		return nil, err
	}
	maxNodes := opts.ILPMaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultCutILPMaxNodes
	}
	res, err := ilp.NewModel(p).SolveCtx(ctx, ilp.Options{MaxNodes: maxNodes})
	if err != nil {
		return nil, err
	}
	if opts.OnILPStats != nil {
		opts.OnILPStats(res.Stats)
	}
	if res.Status == ilp.Aborted {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("testgen: cut set-cover cancelled: %w", ctxErr)
		}
	}
	if res.Status == ilp.Infeasible || res.Status == ilp.Aborted {
		return GenerateCuts(c, src, dst) // greedy fallback
	}
	var out []fault.Vector
	for i := range pool {
		if res.X[vars[i]] > 0.5 {
			out = append(out, pool[i].vector)
		}
	}
	return out, nil
}

// cutCandidate is a fault-simulated candidate test cut: the vector plus
// the set of valves whose stuck-at-1 faults it detects.
type cutCandidate struct {
	vector  fault.Vector
	detects []int
}

// buildCutCoverILP enumerates candidate cuts between ports src and dst,
// fault-simulates their detection sets and constructs the exact set-cover
// ILP. It returns the problem, the candidate pool and the pool's variable
// indices (vars[i] selects pool[i]).
func buildCutCoverILP(c *chip.Chip, src, dst int) (*lp.Problem, []cutCandidate, []int, error) {
	cands, err := enumerateCutCandidates(c, src, dst, 3)
	if err != nil {
		return nil, nil, nil, err
	}
	sim := fault.MustSimulator(c, chip.IndependentControl(c))

	// Detection sets.
	var pool []cutCandidate
	seen := map[string]bool{}
	for _, vec := range cands {
		key := intsKeyLocal(vec.Valves)
		if seen[key] {
			continue
		}
		seen[key] = true
		if det, _ := cutDetections(sim, vec); len(det) > 0 {
			pool = append(pool, cutCandidate{vector: vec, detects: det})
		}
	}

	// Coverage feasibility check.
	covered := make([]bool, c.NumValves())
	for _, s := range pool {
		for _, v := range s.detects {
			covered[v] = true
		}
	}
	for v, ok := range covered {
		if !ok {
			return nil, nil, nil, fmt.Errorf("testgen: no candidate cut detects valve %d", v)
		}
	}

	// Exact set cover.
	p := lp.NewProblem(lp.Minimize)
	vars := make([]int, len(pool))
	for i := range pool {
		vars[i] = p.AddBinaryVar(1, fmt.Sprintf("cut_%d", i))
	}
	for v := 0; v < c.NumValves(); v++ {
		var terms []lp.Term
		for i, s := range pool {
			for _, dv := range s.detects {
				if dv == v {
					terms = append(terms, lp.T(vars[i], 1))
					break
				}
			}
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 1})
	}
	return p, pool, vars, nil
}

// CutCoverILPModel builds the test-cut set-cover ILP between ports src and
// dst. Like PathILPModel it exists for benchmarking the branch-and-bound
// engine on the paper's real models (cmd/bench -mode ilp).
func CutCoverILPModel(c *chip.Chip, src, dst int) (*ilp.Model, error) {
	p, _, _, err := buildCutCoverILP(c, src, dst)
	if err != nil {
		return nil, err
	}
	return ilp.NewModel(p), nil
}

// enumerateCutCandidates returns up to k candidate cuts per valve: the
// default leak-preserving cut plus alternatives obtained by forbidding one
// member of the previous candidate at a time.
func enumerateCutCandidates(c *chip.Chip, src, dst, k int) ([]fault.Vector, error) {
	g := c.Grid.Graph()
	srcNode, dstNode := c.Ports[src].Node, c.Ports[dst].Node
	channelOnly := channelMask(c)
	toVector := func(cutEdges []int) (fault.Vector, bool) {
		valves := make([]int, 0, len(cutEdges))
		for _, e := range cutEdges {
			v, ok := c.ValveOnEdge(e)
			if !ok {
				return fault.Vector{}, false
			}
			valves = append(valves, v)
		}
		sort.Ints(valves)
		return fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{dst}}, true
	}

	sc := cutScratchPool.Get().(*cutScratch)
	defer cutScratchPool.Put(sc)
	var out []fault.Vector
	var base []int // the valve's cut, copied out of sc before the alternatives reuse it
	var allow []bool
	for valve := 0; valve < c.NumValves(); valve++ {
		through := c.Valve(valve).Edge
		cut, err := cutThroughWithLeak(sc, g, srcNode, dstNode, through, channelOnly)
		if err != nil {
			return nil, fmt.Errorf("testgen: valve %d: %w", valve, err)
		}
		base = append(base[:0], cut...)
		if vec, ok := toVector(base); ok {
			out = append(out, vec)
		}
		// Alternatives: ban one non-through member at a time.
		alts := 0
		for _, banned := range base {
			if banned == through || alts >= k-1 {
				continue
			}
			allow = append(allow[:0], channelOnly...)
			allow[banned] = false
			alt, err := cutThroughWithLeakAvoiding(sc, g, srcNode, dstNode, through, allow, allow, nil)
			if err != nil {
				continue
			}
			if vec, ok := toVector(alt); ok {
				out = append(out, vec)
				alts++
			}
		}
	}
	return out, nil
}

func intsKeyLocal(s []int) string {
	out := make([]byte, 0, len(s)*3)
	for _, v := range s {
		out = append(out, byte(v), byte(v>>8), ',')
	}
	return string(out)
}
