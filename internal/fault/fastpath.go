// Campaign fast path: exact structural rules for single-valve faults.
//
// Pressure is simulated as reachability over the open-valve edge set, and
// over undirected edges reachability is the connected-component relation:
// a meter reads pressure iff its component holds a source. One O(V+E)
// Tarjan pass per distinct applied valve state (stateEval, shared by every
// vector that applies the state) labels the components and records the DFS
// forest with its bridges. Readings are monotone in the open set: opening
// one more valve can only turn readings from "no pressure" to "pressure",
// and closing one can only do the reverse. Three exact consequences replace
// the faulty-chip simulation of a campaign:
//
//   - Saturation screen. An opening fault (stuck-at-1, leakage) on a vector
//     whose fault-free readings are all true cannot change any reading;
//     a closing fault (stuck-at-0) on a vector whose readings are all false
//     cannot either. Both verdicts are "undetected" with no simulation.
//
//   - Single-edge reach rule. An opening fault adds exactly one edge (u,w)
//     to the conducting set, which merges the components of u and w. A
//     meter whose fault-free reading is false flips iff u's component holds
//     a source and w's component is the meter's, or vice versa: O(sources)
//     label comparisons.
//
//   - Bridge rule. A closing fault removes exactly one edge from the
//     conducting set, which changes reachability iff that edge is a bridge
//     of the open subgraph. A bridge removal splits its component into the
//     DFS subtree under the bridge and the rest, so a true reading flips to
//     false iff the meter sits in the split component and every source of
//     that component lands on the opposite side — an O(sources) interval
//     probe per meter.
//
// Together the three rules answer every (vector, single-valve-fault) query
// of a campaign in O(ports) after one pass per distinct valve state, which
// is what keeps FPVA-scale campaigns (10x the bundled valve counts)
// near-linear. Exactness is pinned against the unmemoized full simulation
// by the equivalence property tests.
package fault

import "repro/internal/chip"

// bitset is a fixed-size set of node or fault indices; each state
// analysis keeps its bridge flags in one, and Probe.Cover ORs detections
// into one.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// resize returns buf with length n, reallocating only when it is too
// small; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// stateEval is the fault-free analysis of one applied valve state: the
// actual valve states and the Tarjan decomposition of the open subgraph —
// per-node connected component, DFS entry/exit times, the tree edge to the
// parent, and a flag marking parent edges that are bridges. The DFS
// subtree of a node c is exactly {x : tin[c] <= tin[x] < tout[c]}, so
// "which side of a removed bridge" is an O(1) interval probe. A memoized
// one is immutable once built; a Probe refills its own for every vector.
type stateEval struct {
	open       []bool // actual valve states after sharing expansion
	comp       []int32
	tin, tout  []int32
	parentEdge []int32
	bridge     bitset  // node's parent edge is a bridge
	buf        []int32 // backing array of comp, tin, tout and parentEdge
}

// tarjanScratch holds analyzeState's working buffers: the DFS low-links
// and stack, which the finished analysis does not keep.
type tarjanScratch struct {
	low   []int32
	stack []tarjanFrame
}

type tarjanFrame struct {
	node int32
	idx  int32
}

// inSubtree reports whether node x lies in the DFS subtree rooted at c.
func (a *stateEval) inSubtree(c, x int) bool {
	return a.tin[c] <= a.tin[x] && a.tin[x] < a.tout[c]
}

// sourceComp reports whether component c holds one of the source nodes.
func (a *stateEval) sourceComp(srcNodes []int, c int32) bool {
	for _, sn := range srcNodes {
		if a.comp[sn] == c {
			return true
		}
	}
	return false
}

// analyzeState fills a with one O(V+E) iterative Tarjan DFS over the
// channel edges whose valves are open, reusing a's and sc's buffers when
// they are large enough (the four per-node arrays share one backing
// array). Parallel edges are handled by skipping only the entering edge
// ID, so a doubled channel correctly shields both copies from being
// bridges.
func analyzeState(c *chip.Chip, open []bool, a *stateEval, sc *tarjanScratch) {
	g := c.Grid.Graph()
	n := g.NumNodes()
	a.buf = resize(a.buf, 4*n)
	a.open = open
	a.comp = a.buf[0*n : 1*n : 1*n]
	a.tin = a.buf[1*n : 2*n : 2*n]
	a.tout = a.buf[2*n : 3*n : 3*n]
	a.parentEdge = a.buf[3*n : 4*n : 4*n]
	a.bridge = resize(a.bridge, (n+63)/64)
	clear(a.bridge)
	sc.low = resize(sc.low, n)
	low := sc.low
	for i := range a.comp {
		a.comp[i] = -1
		a.parentEdge[i] = -1
	}
	stack := sc.stack[:0]
	var timer, compID int32
	// Every node an open valve touches is reached from an endpoint of some
	// open valve; the DFS starts only there.
	for v, isOpen := range open {
		if !isOpen {
			continue
		}
		root, _ := g.Endpoints(c.Valve(v).Edge)
		if a.comp[root] >= 0 {
			continue
		}
		a.comp[root] = compID
		a.tin[root], low[root] = timer, timer
		timer++
		stack = append(stack[:0], tarjanFrame{node: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := g.Adjacency(int(f.node))
			advanced := false
			for int(f.idx) < len(adj) {
				arc := adj[f.idx]
				f.idx++
				if int32(arc.Edge) == a.parentEdge[f.node] {
					continue
				}
				if valve, ok := c.ValveOnEdge(arc.Edge); !ok || !open[valve] {
					continue // a free lattice edge or a closed valve
				}
				if a.comp[arc.To] >= 0 {
					if a.tin[arc.To] < low[f.node] {
						low[f.node] = a.tin[arc.To]
					}
					continue
				}
				a.comp[arc.To] = compID
				a.tin[arc.To], low[arc.To] = timer, timer
				timer++
				a.parentEdge[arc.To] = int32(arc.Edge)
				stack = append(stack, tarjanFrame{node: int32(arc.To)})
				advanced = true
				break
			}
			if advanced {
				continue
			}
			node := f.node
			a.tout[node] = timer
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].node
				if low[node] < low[p] {
					low[p] = low[node]
				}
				if low[node] > a.tin[p] {
					a.bridge.set(int(node))
				}
			}
		}
		compID++
	}
	sc.stack = stack
	// The rest are isolated: singleton components and DFS subtrees.
	for x := range a.comp {
		if a.comp[x] < 0 {
			a.comp[x] = compID
			a.tin[x], a.tout[x] = timer, timer+1
			compID++
			timer++
		}
	}
}

// detectsClose applies the bridge rule: does removing open edge e (with
// endpoints u, w) flip any of the vector's true readings to false?
func (ev *vectorEval) detectsClose(e, u, w int) bool {
	a := ev.state
	c := -1
	switch {
	case a.parentEdge[u] == int32(e):
		c = u
	case a.parentEdge[w] == int32(e):
		c = w
	default:
		return false // back edge of the DFS: on a cycle, never a bridge
	}
	if !a.bridge.has(c) {
		return false // tree edge on a cycle: removal changes nothing
	}
	ce := a.comp[c]
	for i, good := range ev.readings {
		if !good {
			continue
		}
		m := ev.meterNodes[i]
		if a.comp[m] != ce {
			continue // meter's component keeps all its sources
		}
		mSide := a.inSubtree(c, m)
		stays := false
		for _, sn := range ev.srcNodes {
			if a.comp[sn] == ce && a.inSubtree(c, sn) == mSide {
				stays = true
				break
			}
		}
		if !stays {
			return true
		}
	}
	return false
}

// detectsEval is Detects over a fault-free evaluation of a vector on c —
// the hot path of campaigns and of Probe — counting the rule that settled
// the verdict on t. It is exact: the rules above never change a verdict
// relative to the full simulation (see detectsNoMemo and the equivalence
// property tests).
func detectsEval(c *chip.Chip, ev *vectorEval, f Fault, t *ruleTally) bool {
	a := ev.state
	faulty := a.open[f.Valve]
	switch f.Kind {
	case StuckAt0:
		faulty = false
	case StuckAt1, Leakage:
		faulty = true
	}
	if faulty == a.open[f.Valve] {
		// The fault does not change the applied states, so no reading can
		// differ.
		return false
	}
	if faulty {
		// Opening fault. True readings cannot change; if no reading is
		// false the fault is undetectable by this vector.
		if !ev.anyFalse {
			t.screens++
			return false
		}
		u, w := c.Grid.Graph().Endpoints(c.Valve(f.Valve).Edge)
		t.reaches++
		cu, cw := a.comp[u], a.comp[w]
		srcU, srcW := a.sourceComp(ev.srcNodes, cu), a.sourceComp(ev.srcNodes, cw)
		for i, good := range ev.readings {
			if good {
				continue
			}
			cm := a.comp[ev.meterNodes[i]]
			if (srcU && cw == cm) || (srcW && cu == cm) {
				return true
			}
		}
		return false
	}
	// Closing fault. False readings cannot change; if no reading is true
	// the fault is undetectable by this vector.
	if !ev.anyTrue {
		t.screens++
		return false
	}
	edge := c.Valve(f.Valve).Edge
	u, w := c.Grid.Graph().Endpoints(edge)
	t.bridges++
	return ev.detectsClose(edge, u, w)
}
