// Package assay models biochemical applications as sequencing graphs
// G = (O, E): nodes are operations (dispense, mix, detect) with durations,
// and an edge (i, j) means operation j consumes the fluid produced by
// operation i, so i must finish (and its product be transported) before j
// starts.
//
// The package ships reconstructions of the paper's three real-world
// bioassays with the published operation counts: IVD (12 ops), PID (38
// ops) and CPA (55 ops). The original graphs are unpublished; the
// structures below follow the standard forms used in the synthesis
// literature (diagnostic chains, serial dilution, colorimetric ladders).
package assay

import (
	"fmt"
)

// OpKind classifies operations.
type OpKind int

// Operation kinds. Dispense draws fluid in at a port; Mix runs on a mixer;
// Detect runs on a detector.
const (
	Dispense OpKind = iota
	Mix
	Detect
)

func (k OpKind) String() string {
	switch k {
	case Dispense:
		return "dispense"
	case Mix:
		return "mix"
	case Detect:
		return "detect"
	}
	return "unknown"
}

// Operation durations in seconds, per assay. They are calibrated so that
// the original-chip execution times land in the neighbourhood of the
// paper's Table 1; the evaluation compares relative times, which do not
// depend on the exact values.
const (
	DefaultDispenseTime = 5
	DefaultMixTime      = 40
	DefaultDetectTime   = 30

	IVDMixTime    = 60
	IVDDetectTime = 40

	PIDMixTime    = 40
	PIDDetectTime = 30

	CPAMixTime    = 90
	CPADetectTime = 45
)

// Op is one operation of a bioassay.
type Op struct {
	ID       int
	Kind     OpKind
	Name     string
	Duration int // seconds
}

// Graph is a sequencing graph (a DAG of operations).
type Graph struct {
	Name  string
	ops   []Op
	succs [][]int
	preds [][]int
}

// New returns an empty sequencing graph.
func New(name string) *Graph { return &Graph{Name: name} }

// AddOp appends an operation and returns its ID.
func (g *Graph) AddOp(kind OpKind, name string, duration int) int {
	if duration <= 0 {
		panic(fmt.Sprintf("assay %s: op %q has non-positive duration %d", g.Name, name, duration))
	}
	id := len(g.ops)
	g.ops = append(g.ops, Op{ID: id, Kind: kind, Name: name, Duration: duration})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return id
}

// AddDep records that op to consumes the product of op from.
func (g *Graph) AddDep(from, to int) {
	if from < 0 || from >= len(g.ops) || to < 0 || to >= len(g.ops) {
		panic(fmt.Sprintf("assay %s: dependency %d->%d out of range", g.Name, from, to))
	}
	if from == to {
		panic(fmt.Sprintf("assay %s: self dependency on op %d", g.Name, from))
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// NumOps returns the operation count.
func (g *Graph) NumOps() int { return len(g.ops) }

// Op returns operation id.
func (g *Graph) Op(id int) Op { return g.ops[id] }

// Ops returns all operations; the slice is shared, do not mutate.
func (g *Graph) Ops() []Op { return g.ops }

// Preds returns the predecessor IDs of op id (shared slice).
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// Succs returns the successor IDs of op id (shared slice).
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// TopoOrder returns a topological order, or an error if the graph has a
// cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.ops)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.preds[i])
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("assay %s: sequencing graph has a cycle", g.Name)
	}
	return order, nil
}

// Validate checks that the graph is a DAG, every op has a positive
// duration, and detect operations have no successors that feed mixers
// upstream (detects are terminal measurements in our model: they may chain
// to further detects but not produce fluid for mixes).
func (g *Graph) Validate() error {
	if len(g.ops) == 0 {
		return fmt.Errorf("assay %s: empty graph", g.Name)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, op := range g.ops {
		if op.Duration <= 0 {
			return fmt.Errorf("assay %s: op %d duration %d", g.Name, op.ID, op.Duration)
		}
		if op.Kind == Detect && len(g.succs[op.ID]) > 0 {
			return fmt.Errorf("assay %s: detect op %q has successors", g.Name, op.Name)
		}
		if op.Kind == Dispense && len(g.preds[op.ID]) > 0 {
			return fmt.Errorf("assay %s: dispense op %q has predecessors", g.Name, op.Name)
		}
	}
	return nil
}

// CriticalPath returns the length in seconds of the longest
// duration-weighted path, a device- and transport-free lower bound on any
// schedule's execution time.
func (g *Graph) CriticalPath() int {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	finish := make([]int, len(g.ops))
	best := 0
	for _, u := range order {
		start := 0
		for _, p := range g.preds[u] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[u] = start + g.ops[u].Duration
		if finish[u] > best {
			best = finish[u]
		}
	}
	return best
}

// CountKind returns the number of ops of kind k.
func (g *Graph) CountKind(k OpKind) int {
	n := 0
	for _, op := range g.ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d ops (%d dispense, %d mix, %d detect), critical path %ds",
		g.Name, g.NumOps(), g.CountKind(Dispense), g.CountKind(Mix), g.CountKind(Detect), g.CriticalPath())
}
