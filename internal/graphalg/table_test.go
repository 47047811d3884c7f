package graphalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomWeights returns a weight table drawn from the costs the flow's
// searches use — the greedy augmentation's 0.01/0.05/1, the scheduler's
// 1 and 11, the repairs' 8 — plus forbidden edges, so equal-cost paths
// and exact ties are common.
func randomWeights(rng *rand.Rand, m int) []float64 {
	classes := []float64{-1, 0.01, 0.05, 1, 1, 8, 11}
	w := make([]float64, m)
	for e := range w {
		w[e] = classes[rng.Intn(len(classes))]
	}
	return w
}

// TestBoundedPathScratchExact: the bounded search returns a path exactly
// when the unbounded one does and off + cost < limit, and then the same
// path at the same cost. The limits sit on, one ulp above and one ulp
// below each query's own off + cost, where a rounding slip would show.
func TestBoundedPathScratchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var bounded PathScratch
	offs := []float64{0, 0.01, 0.05, 1, 0.07, 1.06}
	kept, gaveUp := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, n*2)
		w := randomWeights(rng, g.NumEdges())
		weight := func(e int) float64 { return w[e] }
		for q := 0; q < 16; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			_, wantEdges, cost, wantOK := g.WeightedShortestPath(src, dst, weight)
			off := offs[rng.Intn(len(offs))]
			var limit float64
			switch rng.Intn(4) {
			case 0:
				limit = off + cost
			case 1:
				limit = math.Nextafter(off+cost, math.Inf(1))
			case 2:
				limit = math.Nextafter(off+cost, math.Inf(-1))
			default:
				limit = rng.Float64() * 4
			}
			edges, gotCost, ok := g.BoundedPathScratch(&bounded, src, dst, w, off, limit)
			if want := wantOK && off+cost < limit; ok != want {
				t.Fatalf("trial %d %d->%d off %v limit %v: bounded ok %v, want %v (unbounded ok %v cost %v)",
					trial, src, dst, off, limit, ok, want, wantOK, cost)
			}
			if !ok {
				if wantOK {
					gaveUp++
				}
				continue
			}
			kept++
			if gotCost != cost || !equalInts(edges, wantEdges) {
				t.Fatalf("trial %d %d->%d: bounded path %v at %v, unbounded %v at %v",
					trial, src, dst, edges, gotCost, wantEdges, cost)
			}
		}
	}
	if kept == 0 || gaveUp == 0 {
		t.Fatalf("degenerate sample: %d paths kept, %d searches gave up", kept, gaveUp)
	}
}

// TestShortestPathTreeMatchesSingleTarget: one search settling two targets
// gives each target the path a single-target search gives it.
func TestShortestPathTreeMatchesSingleTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var tree, single PathScratch
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, n*2)
		w := randomWeights(rng, g.NumEdges())
		for q := 0; q < 12; q++ {
			src, d1, d2 := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if q%4 == 0 {
				d2 = d1
			}
			g.ShortestPathTreeScratch(&tree, src, d1, d2, w)
			for _, dst := range [2]int{d1, d2} {
				wantEdges, wantCost, wantOK := g.BoundedPathScratch(&single, src, dst, w, 0, math.Inf(1))
				edges, cost, ok := tree.PathTo(dst)
				if ok != wantOK || cost != wantCost || !equalInts(edges, wantEdges) {
					t.Fatalf("trial %d %d->{%d,%d} target %d: tree %v/%v/%v, single %v/%v/%v",
						trial, src, d1, d2, dst, edges, cost, ok, wantEdges, wantCost, wantOK)
				}
			}
		}
	}
}

// TestProtectedJoinIffMaxFlowBig: on unit networks with some edges at a
// capacity above the edge count, the max flow reaches that capacity
// exactly when the high-capacity edges alone join s and t — the fact
// that lets the cut search skip a max flow whose only verdict would be
// that its protected witness is intact.
func TestProtectedJoinIffMaxFlowBig(t *testing.T) {
	const big = 1 << 20
	rng := rand.New(rand.NewSource(23))
	var net FlowNetwork
	var sc Scratch
	joins, cuts := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, n*2)
		protected := make([]bool, g.NumEdges())
		for e := range protected {
			protected[e] = rng.Intn(3) == 0
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		if s == tt {
			continue
		}
		net.Reset(n)
		for e := 0; e < g.NumEdges(); e++ {
			capacity := 1
			if protected[e] {
				capacity = big
			}
			x, y := g.Endpoints(e)
			net.AddArc(x, y, capacity, e)
			net.AddArc(y, x, capacity, e)
		}
		_, _, joined := g.ShortestPathScratch(&sc, s, tt, protected)
		flow := net.MaxFlow(s, tt)
		if joined != (flow >= big) {
			t.Fatalf("trial %d: protected edges join %d-%d: %v, max flow %d (big %d)", trial, s, tt, joined, flow, big)
		}
		if joined {
			joins++
		} else {
			cuts++
		}
	}
	if joins == 0 || cuts == 0 {
		t.Fatalf("degenerate sample: %d joined, %d not", joins, cuts)
	}
}
