// Campaign fast path: exact structural rules for single-valve faults.
//
// Pressure is simulated as reachability over the open-valve edge set, so
// meter readings are monotone in that set: opening one more valve can only
// turn readings from "no pressure" to "pressure", and closing one can only
// do the reverse. Three exact consequences replace the faulty-chip BFS of
// a campaign:
//
//   - Saturation screen. An opening fault (stuck-at-1, leakage) on a vector
//     whose fault-free readings are all true cannot change any reading;
//     a closing fault (stuck-at-0) on a vector whose readings are all false
//     cannot either. Both verdicts are "undetected" with no simulation.
//
//   - Single-edge reach rule. An opening fault adds exactly one edge (u,w)
//     to the conducting set. A meter whose fault-free reading is false
//     becomes reachable iff some source→meter path crosses the new edge,
//     and a simple such path decomposes into a prefix and suffix that use
//     only old edges — so the meter flips iff u is source-reachable and w
//     is meter-reachable in the *fault-free* state, or vice versa. The
//     fault-free reach sets are computed once per vector (lazily, under a
//     sync.Once on the memoized evaluation) and answer every opening fault
//     of the campaign in O(meters) bitset probes.
//
//   - Bridge rule. A closing fault removes exactly one edge from the
//     conducting set, which changes reachability iff that edge is a bridge
//     of the open subgraph. One Tarjan bridge pass per vector (again lazy,
//     under a sync.Once) labels every open edge; a bridge removal splits
//     its component into the DFS subtree under the bridge and the rest, so
//     a true reading flips to false iff the meter sits in the split
//     component and every source of that component lands on the opposite
//     side — an O(sources) interval probe per meter.
//
// Together the three rules answer every (vector, single-valve-fault) query
// of a campaign in amortized O(1) simulation work after one BFS/DFS pass
// per distinct vector, which is what keeps FPVA-scale campaigns (10x the
// bundled valve counts) near-linear. Exactness is pinned against the
// unmemoized full simulation by the equivalence property tests.
package fault

// bitset is a fixed-size node set; campaigns keep one per vector analysis.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// vectorAnalysis caches the fault-free reach sets of one vector: the nodes
// reachable from any source and, per meter, the nodes reachable from the
// meter port, both over the open channel edges. Immutable once built.
type vectorAnalysis struct {
	srcReach   bitset
	meterReach []bitset
}

// analysisOf lazily builds (once, concurrency-safe) the reach sets of a
// memoized vector evaluation.
func (s *Simulator) analysisOf(v Vector, ev *vectorEval) *vectorAnalysis {
	ev.analyzeOnce.Do(func() {
		g := s.chip.Grid.Graph()
		allow := func(e int) bool {
			vv, ok := s.chip.ValveOnEdge(e)
			return ok && ev.open[vv]
		}
		a := &vectorAnalysis{srcReach: newBitset(g.NumNodes())}
		for _, src := range v.Sources {
			for n, d := range g.BFSFrom(s.chip.Ports[src].Node, allow) {
				if d >= 0 {
					a.srcReach.set(n)
				}
			}
		}
		a.meterReach = make([]bitset, len(v.Meters))
		for i, m := range v.Meters {
			bs := newBitset(g.NumNodes())
			for n, d := range g.BFSFrom(s.chip.Ports[m].Node, allow) {
				if d >= 0 {
					bs.set(n)
				}
			}
			a.meterReach[i] = bs
		}
		ev.analysis = a
	})
	return ev.analysis
}

// bridgeAnalysis is the Tarjan bridge decomposition of a vector's open
// subgraph: per-node DFS component, entry/exit times, the tree edge to the
// parent, and a flag marking parent edges that are bridges. The DFS subtree
// of a node c is exactly {x : tin[c] <= tin[x] < tout[c]}, so "which side
// of a removed bridge" is an O(1) interval probe. Immutable once built.
type bridgeAnalysis struct {
	comp       []int32
	tin, tout  []int32
	parentEdge []int32
	bridge     bitset // node's parent edge is a bridge
	srcNodes   []int
	meterNodes []int
}

// inSubtree reports whether node x lies in the DFS subtree rooted at c.
func (a *bridgeAnalysis) inSubtree(c, x int) bool {
	return a.tin[c] <= a.tin[x] && a.tin[x] < a.tout[c]
}

// bridgesOf lazily builds (once, concurrency-safe) the bridge structure of
// a memoized vector evaluation. One O(V+E) iterative DFS; parallel edges
// are handled by skipping only the entering edge ID, so a doubled channel
// correctly shields both copies from being bridges.
func (s *Simulator) bridgesOf(v Vector, ev *vectorEval) *bridgeAnalysis {
	ev.bridgeOnce.Do(func() {
		g := s.chip.Grid.Graph()
		n := g.NumNodes()
		a := &bridgeAnalysis{
			comp:       make([]int32, n),
			tin:        make([]int32, n),
			tout:       make([]int32, n),
			parentEdge: make([]int32, n),
			bridge:     newBitset(n),
		}
		low := make([]int32, n)
		for i := range a.comp {
			a.comp[i] = -1
			a.parentEdge[i] = -1
		}
		open := func(e int) bool {
			vv, ok := s.chip.ValveOnEdge(e)
			return ok && ev.open[vv]
		}
		type frame struct {
			node int32
			idx  int32
		}
		var stack []frame
		var timer, compID int32
		for root := 0; root < n; root++ {
			if a.comp[root] >= 0 {
				continue
			}
			a.comp[root] = compID
			a.tin[root], low[root] = timer, timer
			timer++
			stack = append(stack[:0], frame{node: int32(root)})
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				adj := g.Adjacency(int(f.node))
				advanced := false
				for int(f.idx) < len(adj) {
					arc := adj[f.idx]
					f.idx++
					if int32(arc.Edge) == a.parentEdge[f.node] || !open(arc.Edge) {
						continue
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
					stack = append(stack, frame{node: int32(arc.To)})
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
		a.srcNodes = make([]int, len(v.Sources))
		for i, src := range v.Sources {
			a.srcNodes[i] = s.chip.Ports[src].Node
		}
		a.meterNodes = make([]int, len(v.Meters))
		for i, m := range v.Meters {
			a.meterNodes[i] = s.chip.Ports[m].Node
		}
		ev.bridges = a
	})
	return ev.bridges
}

// detectsClose applies the bridge rule: does removing open edge e (with
// endpoints u, w) flip any currently-true reading to false?
func (a *bridgeAnalysis) detectsClose(readings []bool, e, u, w int) bool {
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
	for i, good := range readings {
		if !good {
			continue
		}
		m := a.meterNodes[i]
		if a.comp[m] != ce {
			continue // meter's component keeps all its sources
		}
		mSide := a.inSubtree(c, m)
		stays := false
		for _, sn := range a.srcNodes {
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

// detectsEval is Detects over a memoized fault-free evaluation — the
// campaign hot path. It is exact: the rules above never change a verdict
// relative to the full simulation (see detectsNoMemo and the equivalence
// property tests). The scratch parameter is kept for the campaign loops
// that own per-worker scratch; the structural rules no longer need it.
func (s *Simulator) detectsEval(v Vector, ev *vectorEval, f Fault, _ *campaignScratch) bool {
	faulty := ev.open[f.Valve]
	switch f.Kind {
	case StuckAt0:
		faulty = false
	case StuckAt1, Leakage:
		faulty = true
	}
	if faulty == ev.open[f.Valve] {
		// The fault does not change the applied states, so no reading can
		// differ.
		return false
	}
	if faulty {
		// Opening fault. True readings cannot change; if no reading is
		// false the fault is undetectable by this vector.
		if !ev.anyFalse {
			s.metrics.noteScreen()
			return false
		}
		a := s.analysisOf(v, ev)
		u, w := s.chip.Grid.Graph().Endpoints(s.chip.Valve(f.Valve).Edge)
		s.metrics.noteReachRule()
		for i, good := range ev.readings {
			if good {
				continue
			}
			if (a.srcReach.has(u) && a.meterReach[i].has(w)) ||
				(a.srcReach.has(w) && a.meterReach[i].has(u)) {
				return true
			}
		}
		return false
	}
	// Closing fault. False readings cannot change; if no reading is true
	// the fault is undetectable by this vector.
	if !ev.anyTrue {
		s.metrics.noteScreen()
		return false
	}
	edge := s.chip.Valve(f.Valve).Edge
	u, w := s.chip.Grid.Graph().Endpoints(edge)
	s.metrics.noteBridgeRule()
	return s.bridgesOf(v, ev).detectsClose(ev.readings, edge, u, w)
}
