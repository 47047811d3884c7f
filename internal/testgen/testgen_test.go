package testgen

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/ilp"
)

// checkAugmentation validates the structural invariants of a DFT
// configuration: every path is a simple source→meter path over channel
// edges, every original edge is covered by at least one path, and every
// added edge lies on at least one path.
func checkAugmentation(t *testing.T, orig *chip.Chip, a *Augmentation) {
	t.Helper()
	g := a.Chip.Grid.Graph()
	srcNode := a.Chip.Ports[a.Source].Node
	dstNode := a.Chip.Ports[a.Meter].Node

	coveredEdges := make(map[int]bool)
	for i, p := range a.Paths {
		if !g.IsSimplePath(srcNode, dstNode, p) {
			t.Fatalf("path %d is not a simple s-t path: %v", i, p)
		}
		for _, e := range p {
			if _, ok := a.Chip.ValveOnEdge(e); !ok {
				t.Fatalf("path %d uses unvalved edge %d", i, e)
			}
			coveredEdges[e] = true
		}
	}
	for _, e := range orig.OriginalEdges() {
		if !coveredEdges[e] {
			t.Errorf("original edge %d not covered by any test path", e)
		}
	}
	for _, e := range a.AddedEdges {
		if !coveredEdges[e] {
			t.Errorf("added DFT edge %d not on any test path", e)
		}
	}
	if a.Chip.NumDFTValves() != len(a.AddedEdges) {
		t.Errorf("DFT valves %d != added edges %d", a.Chip.NumDFTValves(), len(a.AddedEdges))
	}
}

func TestHeuristicAugmentIVD(t *testing.T) {
	c := chip.IVD()
	a, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAugmentation(t, c, a)
	if a.Method != "heuristic" {
		t.Fatalf("method = %q", a.Method)
	}
}

func TestHeuristicAugmentAllBenchmarks(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		a, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		checkAugmentation(t, c, a)
		// The paper reports 4-7 added DFT valves per chip; the heuristic
		// should stay in a comparable range.
		if n := len(a.AddedEdges); n < 1 || n > 16 {
			t.Errorf("%s: added %d DFT edges, outside plausible range", c.Name, n)
		}
	}
}

func TestILPAugmentIVD(t *testing.T) {
	c := chip.IVD()
	a, err := AugmentILPCtx(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAugmentation(t, c, a)
	if a.Method != "ilp" {
		t.Fatalf("method = %q", a.Method)
	}
	// The ILP is optimal in added edges: it can never add more than the
	// heuristic.
	h, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.AddedEdges) > len(h.AddedEdges) {
		t.Fatalf("ILP added %d edges > heuristic %d", len(a.AddedEdges), len(h.AddedEdges))
	}
}

// A budget-truncated path-ILP incumbent covers every channel with test
// paths yet can leave a valve that no cut detects; this 28-edge RA30
// augmentation is one. AugmentILPCtx must reject it, and not as
// infeasible, so a degradation chain moves on to the heuristic tier.
func TestRequireCutsRejectsUncuttableAugmentation(t *testing.T) {
	c := chip.RA30()
	src, dst, _, _ := testPorts(c)
	added := []int{0, 1, 3, 4, 5, 7, 8, 9, 11, 14, 15, 19, 21, 24, 33, 38, 41, 44, 46, 49, 50, 51, 59, 60, 64, 71, 73, 75}
	augChip, err := applyAugmentation(c, added)
	if err != nil {
		t.Fatal(err)
	}
	err = requireCuts(context.Background(), &Augmentation{Chip: augChip, AddedEdges: added, Source: src, Meter: dst})
	if err == nil {
		t.Fatal("requireCuts accepted an augmentation with an untestable valve")
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatalf("requireCuts error %v reads as infeasible", err)
	}
	h, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := requireCuts(context.Background(), h); err != nil {
		t.Fatalf("heuristic augmentation rejected: %v", err)
	}
}

// The IVD |P|=2 path ILP pins the branch-and-bound tree and the LP
// kernel's pivot sequences, cold and warm, together: a change to either
// moves the node, lazy-cut or pivot count.
func TestPathILPEffortIVD(t *testing.T) {
	m, lazy := PathILPModel(chip.IVD(), 2)
	res, err := m.Solve(ilp.Options{MaxNodes: 4000, Lazy: lazy})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if res.Status != ilp.Optimal || res.Nodes != 1743 || res.LazyCuts != 20 ||
		st.LPPivots != 18266 || st.LPMaxPivots != 309 || st.BlandTrips != 0 || st.IterLimits != 0 {
		t.Fatalf("status=%v nodes=%d lazy=%d stats=%+v, want optimal, 1743 nodes, 20 cuts, 18266 pivots (max 309), no Bland trips or limit hits",
			res.Status, res.Nodes, res.LazyCuts, st)
	}
}

func TestPathVectorsDetectAllStuckAt0(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		a, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sim := fault.MustSimulator(a.Chip, chip.IndependentControl(a.Chip))
		vectors := a.PathVectors()
		var faults []fault.Fault
		for v := 0; v < a.Chip.NumValves(); v++ {
			faults = append(faults, fault.Fault{Kind: fault.StuckAt0, Valve: v})
		}
		cov := sim.EvaluateCoverage(vectors, faults)
		if !cov.Full() {
			t.Errorf("%s: stuck-at-0 coverage %v, undetected %v", c.Name, cov, cov.Undetected)
		}
	}
}

func TestCutsDetectAllStuckAt1(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		a, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		cuts, err := GenerateCuts(a.Chip, a.Source, a.Meter)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sim := fault.MustSimulator(a.Chip, chip.IndependentControl(a.Chip))
		var faults []fault.Fault
		for v := 0; v < a.Chip.NumValves(); v++ {
			faults = append(faults, fault.Fault{Kind: fault.StuckAt1, Valve: v})
		}
		cov := sim.EvaluateCoverage(cuts, faults)
		if !cov.Full() {
			t.Errorf("%s: stuck-at-1 coverage %v, undetected %v", c.Name, cov, cov.Undetected)
		}
	}
}

func TestVerifyFullCoverageSingleSourceSingleMeter(t *testing.T) {
	c := chip.IVD()
	a, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := GenerateCuts(a.Chip, a.Source, a.Meter)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := a.Verify(nil, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Full() {
		t.Fatalf("full single-source single-meter coverage expected: %v (undetected %v)", cov, cov.Undetected)
	}
	// Every vector uses the single test port pair.
	for _, v := range append(a.PathVectors(), cuts...) {
		if len(v.Sources) != 1 || len(v.Meters) != 1 || v.Sources[0] != a.Source || v.Meters[0] != a.Meter {
			t.Fatalf("vector uses extra instruments: %v", v)
		}
	}
}

func TestEdgeWeightsSteerHeuristic(t *testing.T) {
	c := chip.IVD()
	base, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Penalize the edges the base solution chose; the heuristic should
	// avoid at least one of them (or pay the cost, but on grids an
	// alternative normally exists).
	weights := make([]float64, c.Grid.NumEdges())
	for _, e := range base.AddedEdges {
		weights[e] = 50
	}
	alt, err := AugmentHeuristic(c, Options{EdgeWeights: weights})
	if err != nil {
		t.Fatal(err)
	}
	checkAugmentation(t, c, alt)
	same := true
	if len(alt.AddedEdges) != len(base.AddedEdges) {
		same = false
	} else {
		for i := range alt.AddedEdges {
			if alt.AddedEdges[i] != base.AddedEdges[i] {
				same = false
			}
		}
	}
	if same {
		t.Log("warning: weights did not change the configuration (acceptable but unusual)")
	}
}

// TestRouteThroughFailureAllocFree: a routing that finds no path returns
// the errNoRoute sentinel, so once the scratch pool is warm a failed call
// allocates nothing. The case is a channel-only routing between two ports
// of IVD_chip through the first grid edge no such path crosses.
func TestRouteThroughFailureAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	c := chip.IVD()
	g := c.Grid.Graph()
	channel := channelCost(channelMask(c))
	s, dst := c.Ports[0].Node, c.Ports[1].Node
	through := -1
	for e := 0; e < c.Grid.NumEdges() && through < 0; e++ {
		if _, err := routeThrough(g, s, dst, e, channel); err != nil {
			through = e
		}
	}
	if through < 0 {
		t.Fatal("every grid edge routes; no failing case")
	}
	if _, err := routeThrough(g, s, dst, through, channel); !errors.Is(err, errNoRoute) {
		t.Fatalf("failed routing through edge %d: err = %v, want errNoRoute", through, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = routeThrough(g, s, dst, through, channel)
	}); allocs != 0 {
		t.Fatalf("failed routing through edge %d allocates %v times per call, want 0", through, allocs)
	}
}

func TestBaselineVectorsCoverOriginalChip(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		paths, cuts, err := BaselineVectors(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sim := fault.MustSimulator(c, chip.IndependentControl(c))
		cov := sim.EvaluateCoverage(append(append([]fault.Vector{}, paths...), cuts...), fault.AllFaults(c))
		if !cov.Full() {
			t.Errorf("%s: baseline coverage %v, undetected %v", c.Name, cov, cov.Undetected)
		}
	}
}

func TestBaselineUsesFewerVectorsThanDFT(t *testing.T) {
	// Fig. 8's qualitative claim: the single-source single-meter DFT chip
	// needs at least as many vectors as the multi-instrument baseline.
	for _, c := range chip.Benchmarks() {
		bp, bc, err := BaselineVectors(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		a, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		cuts, err := GenerateCuts(a.Chip, a.Source, a.Meter)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		baseline := len(bp) + len(bc)
		dft := len(a.Paths) + len(cuts)
		if dft < baseline {
			t.Errorf("%s: DFT vectors %d < baseline %d; Fig. 8 shape violated", c.Name, dft, baseline)
		}
	}
}

func TestAugmentationDoesNotMutateInput(t *testing.T) {
	c := chip.IVD()
	before := c.NumValves()
	if _, err := AugmentHeuristic(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if c.NumValves() != before {
		t.Fatal("augmentation mutated the input chip")
	}
}

func TestGenerateCutsSingleSourceMeters(t *testing.T) {
	c := chip.IVD()
	a, err := AugmentHeuristic(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := GenerateCuts(a.Chip, a.Source, a.Meter)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("no cuts generated")
	}
	sim := fault.MustSimulator(a.Chip, chip.IndependentControl(a.Chip))
	for _, cut := range cuts {
		if !sim.FaultFreeOK(cut) {
			t.Fatalf("cut %v does not separate on a good chip", cut)
		}
	}
}

// TestCutDetectionsMatchPerFault: on random chips, the one-evaluation cut
// detection the cut generators share returns exactly the valves, in
// order, that a FaultFreeOK check and a per-fault Detects loop give, and
// reports usability as FaultFreeOK does. The candidates are the
// leak-preserving cuts the generators build and random valve sets, many of
// which do not separate their ports.
func TestCutDetectionsMatchPerFault(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sc cutScratch
	usable, unusable, detecting := 0, 0, 0
	for seed := int64(0); seed < 12; seed++ {
		c := chip.Random(rand.New(rand.NewSource(seed)))
		g := c.Grid.Graph()
		channel := channelMask(c)
		sim := fault.MustSimulator(c, chip.IndependentControl(c))
		oracle := fault.MustSimulator(c, chip.IndependentControl(c))
		for trial := 0; trial < 30; trial++ {
			src, dst := rng.Intn(len(c.Ports)), rng.Intn(len(c.Ports))
			var valves []int
			if trial%2 == 0 {
				through := c.Valve(rng.Intn(c.NumValves())).Edge
				cut, err := cutThroughWithLeak(&sc, g, c.Ports[src].Node, c.Ports[dst].Node, through, channel)
				if err != nil {
					continue
				}
				for _, e := range cut {
					v, _ := c.ValveOnEdge(e)
					valves = append(valves, v)
				}
				slices.Sort(valves)
			} else {
				for v := 0; v < c.NumValves(); v++ {
					if rng.Intn(3) == 0 {
						valves = append(valves, v)
					}
				}
			}
			vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{dst}}
			wantUsable := oracle.FaultFreeOK(vec)
			var want []int
			if wantUsable {
				for _, v := range valves {
					if oracle.Detects(vec, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
						want = append(want, v)
					}
				}
			}
			got, gotUsable := cutDetections(sim, vec)
			if gotUsable != wantUsable || !slices.Equal(got, want) {
				t.Fatalf("%s %v: cutDetections = %v (usable %v), per-fault loop %v (usable %v)",
					c.Name, vec, got, gotUsable, want, wantUsable)
			}
			if !wantUsable {
				unusable++
				continue
			}
			usable++
			if len(want) > 0 {
				detecting++
			}
		}
	}
	if usable == 0 || unusable == 0 || detecting == 0 {
		t.Fatalf("degenerate sample: %d usable (%d detecting), %d unusable", usable, detecting, unusable)
	}
	t.Logf("%d usable candidates (%d detecting), %d unusable", usable, detecting, unusable)
}
