package pressure

// csr.go builds the immutable sparse structure of one test rig — a
// (chip, source node, meter node) triple. The grounded-Laplacian pattern
// over the rig's unknowns is fixed by the chip topology alone (every valve
// edge is structurally present; closed valves merely contribute zero
// values), so the fill-reducing elimination order and the symbolic LDLᵀ
// analysis run exactly once per rig and are shared read-only by every
// Solver.
//
// Unknowns are the grid nodes incident to at least one valve edge, minus
// the two Dirichlet terminals. Nodes a given valve state leaves without a
// conducting connection to either terminal (floating islands) keep their
// structural slots but are assembled as identity rows, which reproduces
// the dense baseline's semantics exactly: their pressure is 0 and they
// carry no flow, and the remaining block is the baseline's grounded
// Laplacian over the reachable set, which is symmetric positive definite.

import (
	"fmt"

	"repro/internal/chip"
)

// Endpoint sentinels in unknown space.
const (
	endSource = -1
	endMeter  = -2
)

// adjEntry is one incident valve edge of an unknown: the valve and the
// unknown index of the far endpoint.
type adjEntry struct {
	valve int32
	to    int32
}

// system is the immutable per-rig structure shared by all Solvers.
type system struct {
	c      *chip.Chip
	source int

	m        int     // number of unknowns
	unknowns []int32 // unknown index -> grid node
	ends     [][2]int32
	// ends[v] are valve v's endpoints in unknown space (endSource /
	// endMeter for terminals).

	incident [][]int32    // incident[u]: valves on edges touching unknown u
	adj      [][]adjEntry // adj[u]: unknown-to-unknown valve edges
	srcAdj   []adjEntry   // valves touching the source: (valve, unknown)
	mtrAdj   []adjEntry   // valves touching the meter: (valve, unknown)
	direct   []int32      // valves whose edge joins source and meter

	perm  []int32 // elimination order: perm[k] = unknown eliminated k-th
	iperm []int32 // iperm[u] = position of unknown u in the order

	// Upper-triangular CSC pattern of the permuted matrix: column j holds
	// slots Ap[j]..Ap[j+1), each with row Ai[p] <= j. slotValve[p] is the
	// off-diagonal slot's valve, or -1 for the diagonal slot.
	Ap        []int32
	Ai        []int32
	slotValve []int32

	// Symbolic LDLᵀ of the pattern: elimination tree and column pointers.
	parent []int32
	Lp     []int32
	lnz    int // total nonzeros in L
}

// newSystem analyzes the rig: unknown indexing, adjacency, minimum-degree
// ordering and symbolic factorization.
func newSystem(c *chip.Chip, sourceNode, meterNode int) (*system, error) {
	n := c.Grid.NumNodes()
	if sourceNode < 0 || sourceNode >= n || meterNode < 0 || meterNode >= n {
		return nil, fmt.Errorf("pressure: terminal node outside grid (source %d, meter %d, %d nodes)", sourceNode, meterNode, n)
	}
	if sourceNode == meterNode {
		return nil, fmt.Errorf("pressure: source and meter coincide")
	}
	s := &system{c: c, source: sourceNode}

	// Unknown indexing over channel nodes (nodes with >=1 valve edge).
	onChannel := make([]bool, n)
	for _, v := range c.Valves() {
		x, y := c.Grid.Graph().Endpoints(v.Edge)
		onChannel[x], onChannel[y] = true, true
	}
	unkOf := make([]int32, n)
	for i := range unkOf {
		unkOf[i] = -3
	}
	unkOf[sourceNode], unkOf[meterNode] = endSource, endMeter
	for node := 0; node < n; node++ {
		if onChannel[node] && node != sourceNode && node != meterNode {
			unkOf[node] = int32(len(s.unknowns))
			s.unknowns = append(s.unknowns, int32(node))
		}
	}
	s.m = len(s.unknowns)

	// Valve endpoints and adjacency.
	s.ends = make([][2]int32, c.NumValves())
	s.incident = make([][]int32, s.m)
	s.adj = make([][]adjEntry, s.m)
	for _, valve := range c.Valves() {
		x, y := c.Grid.Graph().Endpoints(valve.Edge)
		a, b := unkOf[x], unkOf[y]
		v := int32(valve.ID)
		s.ends[valve.ID] = [2]int32{a, b}
		for _, pair := range [2][2]int32{{a, b}, {b, a}} {
			from, to := pair[0], pair[1]
			switch from {
			case endSource:
				if to >= 0 {
					s.srcAdj = append(s.srcAdj, adjEntry{valve: v, to: to})
				}
			case endMeter:
				if to >= 0 {
					s.mtrAdj = append(s.mtrAdj, adjEntry{valve: v, to: to})
				}
			default:
				s.incident[from] = append(s.incident[from], v)
				if to >= 0 {
					s.adj[from] = append(s.adj[from], adjEntry{valve: v, to: to})
				}
			}
		}
		if (a == endSource && b == endMeter) || (a == endMeter && b == endSource) {
			s.direct = append(s.direct, v)
		}
	}

	s.perm = minDegreeOrder(s.m, s.adj)
	s.iperm = make([]int32, s.m)
	for k, u := range s.perm {
		s.iperm[u] = int32(k)
	}
	s.buildPattern()
	s.parent, s.Lp = ldlSymbolic(s.m, s.Ap, s.Ai)
	s.lnz = int(s.Lp[s.m])
	return s, nil
}

// buildPattern assembles the permuted upper-triangular CSC pattern: one
// slot per unknown-to-unknown valve edge plus one diagonal slot per
// column, rows sorted ascending within each column.
func (s *system) buildPattern() {
	type slot struct {
		row   int32
		valve int32
	}
	cols := make([][]slot, s.m)
	for j := int32(0); j < int32(s.m); j++ {
		cols[j] = append(cols[j], slot{row: j, valve: -1})
	}
	for u := 0; u < s.m; u++ {
		pu := s.iperm[u]
		for _, e := range s.adj[u] {
			pv := s.iperm[e.to]
			if pu < pv { // visit each undirected edge once
				cols[pv] = append(cols[pv], slot{row: pu, valve: e.valve})
			}
		}
	}
	s.Ap = make([]int32, s.m+1)
	for j := 0; j < s.m; j++ {
		// Insertion sort by row; columns are tiny (lattice degree <= 4).
		col := cols[j]
		for i := 1; i < len(col); i++ {
			for k := i; k > 0 && col[k-1].row > col[k].row; k-- {
				col[k-1], col[k] = col[k], col[k-1]
			}
		}
		s.Ap[j+1] = s.Ap[j] + int32(len(col))
		for _, sl := range col {
			s.Ai = append(s.Ai, sl.row)
			s.slotValve = append(s.slotValve, sl.valve)
		}
	}
}

// minDegreeOrder computes a fill-reducing elimination order by plain
// minimum degree on the elimination graph (dense connectivity matrix —
// rigs have at most a few hundred unknowns, and this runs once per rig).
// Ties break to the lowest unknown index, keeping the order — and with it
// every downstream factorization — deterministic.
func minDegreeOrder(m int, adj [][]adjEntry) []int32 {
	perm := make([]int32, 0, m)
	if m == 0 {
		return perm
	}
	conn := make([]bool, m*m)
	deg := make([]int, m)
	for u := range adj {
		for _, e := range adj[u] {
			v := int(e.to)
			if u != v && !conn[u*m+v] {
				conn[u*m+v], conn[v*m+u] = true, true
				deg[u]++
				deg[v]++
			}
		}
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	nbrs := make([]int, 0, m)
	for len(perm) < m {
		best := -1
		for u := 0; u < m; u++ {
			if alive[u] && (best < 0 || deg[u] < deg[best]) {
				best = u
			}
		}
		perm = append(perm, int32(best))
		alive[best] = false
		nbrs = nbrs[:0]
		for v := 0; v < m; v++ {
			if alive[v] && conn[best*m+v] {
				nbrs = append(nbrs, v)
				conn[best*m+v], conn[v*m+best] = false, false
				deg[v]--
			}
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := nbrs[i], nbrs[j]
				if !conn[a*m+b] {
					conn[a*m+b], conn[b*m+a] = true, true
					deg[a]++
					deg[b]++
				}
			}
		}
	}
	return perm
}
