// Package testgen implements the paper's test-generation algorithms:
//
//   - DFT augmentation (Section 3): select free connection-grid edges so
//     that every original channel lies on a simple path between a single
//     pressure-source port and a single pressure-meter port, minimizing the
//     number of added channels. Implemented exactly as the paper's ILP
//     (eqs. (1)-(6)) with lazy loop exclusion (technique of ref. [16]), and
//     as a fast greedy heuristic used inside the PSO inner loop.
//   - Test-path vectors for stuck-at-0 defects and test-cut vectors for
//     stuck-at-1 defects (Sections 2-3) on the augmented single-source
//     single-meter chip.
//   - A multi-source multi-meter baseline on the original chip in the style
//     of refs. [15]/[16], used to reproduce Fig. 8.
package testgen

import (
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/ilp"
)

// Augmentation is a DFT configuration: the augmented chip plus the test
// paths that certify single-source single-meter stuck-at-0 coverage.
type Augmentation struct {
	// Chip is an augmented clone of the input chip; the original is not
	// modified.
	Chip *chip.Chip
	// AddedEdges are the free grid edges turned into DFT channels, sorted.
	AddedEdges []int
	// Paths hold the test paths as ordered grid-edge ID slices from Source
	// to Meter.
	Paths [][]int
	// Source and Meter are port IDs on Chip (the paper's fixed test pair:
	// the two most distant ports).
	Source, Meter int
	// Method records which engine produced the configuration ("ilp",
	// "heuristic" or "repair").
	Method string
	// ILPNodes and LazyCuts are solver statistics (zero for heuristic).
	ILPNodes, LazyCuts int
	// Uncovered lists original edges the best-effort repair engine could
	// not place on any test path (unroutable, or the budget expired).
	// Always nil for the "ilp" and "heuristic" engines, whose results
	// cover every original edge by construction.
	Uncovered []int
}

// NumPaths returns the number of test paths.
func (a *Augmentation) NumPaths() int { return len(a.Paths) }

// PathVectors converts the augmentation's paths into test vectors for
// stuck-at-0 defects.
func (a *Augmentation) PathVectors() []fault.Vector {
	out := make([]fault.Vector, 0, len(a.Paths))
	for _, p := range a.Paths {
		valves := make([]int, 0, len(p))
		for _, e := range p {
			v, ok := a.Chip.ValveOnEdge(e)
			if !ok {
				panic(fmt.Sprintf("testgen: path edge %d has no valve", e))
			}
			valves = append(valves, v)
		}
		out = append(out, fault.Vector{
			Kind:    fault.PathVector,
			Valves:  valves,
			Sources: []int{a.Source},
			Meters:  []int{a.Meter},
		})
	}
	return out
}

// Options tunes augmentation.
type Options struct {
	// MaxPaths caps the path count |P| (the paper starts at 2 and
	// increments); 0 means the default of 8.
	MaxPaths int
	// EdgeWeights biases the objective: weight w>=0 of a free edge is added
	// to its unit cost, steering the optimizer away from (large w) or
	// towards (w=0) specific edges. Indexed by grid edge ID; nil = no bias.
	// This is the hook the outer PSO uses to explore alternative DFT
	// configurations.
	EdgeWeights []float64
	// ILPMaxNodes caps branch-and-bound nodes per |P| iteration (0 =
	// default).
	ILPMaxNodes int
	// OnILPAttempt, when non-nil, is called after every ILP |P|-iteration
	// with the branch-and-bound node and lazy-cut counts of that solve —
	// the observability hook for the exact engine. It never affects the
	// solve.
	OnILPAttempt func(paths, nodes, lazyCuts int)
	// OnILPStats, when non-nil, is called after every ILP solve with the
	// statistics of that solve: its lazy-cut requeues and the LP effort of
	// its relaxations (pivots, Bland trips, iteration-limit hits). It
	// never affects the solve.
	OnILPStats func(ilp.SolveStats)
}

// DefaultMaxPaths caps the |P| iteration when Options.MaxPaths is 0.
const DefaultMaxPaths = 8

func (o Options) maxPaths() int {
	if o.MaxPaths > 0 {
		return o.MaxPaths
	}
	return DefaultMaxPaths
}

// testPorts returns the paper's test port pair (most distant ports) and
// their grid nodes.
func testPorts(c *chip.Chip) (srcPort, dstPort, srcNode, dstNode int) {
	srcPort, dstPort = c.MaxDistantPortPair()
	return srcPort, dstPort, c.Ports[srcPort].Node, c.Ports[dstPort].Node
}

// applyAugmentation clones the chip and adds DFT channels for the given
// free edges, returning the augmented clone.
func applyAugmentation(c *chip.Chip, added []int) (*chip.Chip, error) {
	out := c.Clone()
	sorted := append([]int(nil), added...)
	sort.Ints(sorted)
	for _, e := range sorted {
		if _, err := out.AddDFTChannel(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Verify fault-simulates the augmentation's path vectors (plus the given
// cut vectors, if any) under the control assignment and reports coverage of
// all stuck-at-0 and stuck-at-1 faults. Pass a nil control for independent
// control. It returns an error when the control assignment belongs to a
// different chip.
func (a *Augmentation) Verify(ctrl *chip.Control, cuts []fault.Vector) (fault.Coverage, error) {
	if ctrl == nil {
		ctrl = chip.IndependentControl(a.Chip)
	}
	sim, err := fault.NewSimulator(a.Chip, ctrl)
	if err != nil {
		return fault.Coverage{}, err
	}
	vectors := append(a.PathVectors(), cuts...)
	return fault.NewEngine(sim, 0).EvaluateCoverage(vectors, fault.AllFaults(a.Chip)), nil
}
