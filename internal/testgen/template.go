// Line-first test generation for regular valve arrays.
//
// A valve whose full grid row (horizontal valves) or column (vertical
// valves) is uniformly valved, with boundary ports closing both ends of the
// line, is tested by straight-line vectors: the path vector opens the whole
// line plus the two port stubs, and the cut vector closes every channel
// crossing the valve's lattice gap. Both are closed-form — no routing or
// max-flow solve — and every valve on the same line shares the same
// absolute vectors, so their certifications share one state analysis in
// the simulator's state memo, made before the per-valve loop. These are
// the row/column paths and lattice-gap cuts of the FPVA test literature;
// on every square FPVA probed, every valve qualifies.
//
// Every other valve, and any line vector that fails certification, gets
// the per-valve solve GenerateBaseline runs, so the two generators share
// one loop (suite.go) and differ only in this shortcut.
package testgen

import (
	"context"
	"sort"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/grid"
)

// gridLine is the straight test line along one grid row (horizontal
// valves) or column (vertical valves): whether the line is fully valved
// with straight boundary ports closing both ends, those ports (source,
// meter), and the sorted path valves (stubs + full line). Every valve on
// the line shares these.
type gridLine struct {
	ok         bool
	ports      []int
	pathValves []int
}

// lineTable holds the straight structures of a chip's grid, built once per
// suite generation: rows[y] and cols[x] are the grid lines, and
// colGaps[x] (rowGaps[y]) lists the sorted valves of every channel
// crossing the lattice gap between columns x and x+1 (rows y and y+1),
// the cut of any valve spanning that gap. Vectors built from the table
// share its slices, so no vector's valves or ports may be written.
type lineTable struct {
	rows, cols       []gridLine
	colGaps, rowGaps [][]int
}

// straightPort finds the boundary port closing a line end: among the ports
// on the given boundary column (horiz) or row (!horiz), the one nearest to
// the line's coordinate whose stub — the straight boundary run from the
// port to the line end — is fully valved. Ties go to the lower coordinate.
// Returns the port, the stub valves, and whether one exists.
func (p *suitePre) straightPort(horiz bool, fixed, along int) (port int, stub []int, ok bool) {
	gr := p.c.Grid
	type cand struct{ port, coord int }
	var cands []cand
	for _, pt := range p.c.Ports {
		co := gr.CoordOf(pt.Node)
		if horiz && co.X == fixed {
			cands = append(cands, cand{pt.ID, co.Y})
		} else if !horiz && co.Y == fixed {
			cands = append(cands, cand{pt.ID, co.X})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := abs(cands[i].coord-along), abs(cands[j].coord-along)
		if di != dj {
			return di < dj
		}
		return cands[i].coord < cands[j].coord
	})
	for _, cd := range cands {
		lo, hi := along, cd.coord
		if lo > hi {
			lo, hi = hi, lo
		}
		valves := make([]int, 0, hi-lo)
		good := true
		for a := lo; a < hi; a++ {
			c0 := grid.Coord{X: fixed, Y: a}
			c1 := grid.Coord{X: fixed, Y: a + 1}
			if !horiz {
				c0 = grid.Coord{X: a, Y: fixed}
				c1 = grid.Coord{X: a + 1, Y: fixed}
			}
			v, okV := p.valveBetween(c0, c1)
			if !okV {
				good = false
				break
			}
			valves = append(valves, v)
		}
		if good {
			return cd.port, valves, true
		}
	}
	return 0, nil, false
}

// valveBetween returns the valve on the channel between two adjacent
// coordinates, if that channel exists.
func (p *suitePre) valveBetween(c0, c1 grid.Coord) (int, bool) {
	e, ok := p.c.Grid.EdgeBetweenCoords(c0, c1)
	if !ok {
		return 0, false
	}
	return p.c.ValveOnEdge(e)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// straightLine builds the test line along grid row at (horiz) or
// column at; ok is false when the line is not fully valved or lacks
// straight boundary ports on both ends.
func (p *suitePre) straightLine(horiz bool, at int) gridLine {
	gr := p.c.Grid
	n := gr.W
	if !horiz {
		n = gr.H
	}
	valves := make([]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		c0, c1 := grid.Coord{X: i, Y: at}, grid.Coord{X: i + 1, Y: at}
		if !horiz {
			c0, c1 = grid.Coord{X: at, Y: i}, grid.Coord{X: at, Y: i + 1}
		}
		v, ok := p.valveBetween(c0, c1)
		if !ok {
			return gridLine{}
		}
		valves = append(valves, v)
	}
	srcPort, srcStub, ok := p.straightPort(horiz, 0, at)
	if !ok {
		return gridLine{}
	}
	dstPort, dstStub, ok := p.straightPort(horiz, n-1, at)
	if !ok || srcPort == dstPort {
		return gridLine{}
	}
	path := append(append(valves, srcStub...), dstStub...)
	sort.Ints(path)
	return gridLine{ok: true, ports: []int{srcPort, dstPort}, pathValves: path}
}

// gapValves returns the sorted valves of the channels crossing the lattice
// gap between columns at and at+1 (horiz: horizontal channels) or between
// rows at and at+1.
func (p *suitePre) gapValves(horiz bool, at int) []int {
	gr := p.c.Grid
	n := gr.H
	if !horiz {
		n = gr.W
	}
	var out []int
	for i := 0; i < n; i++ {
		c0, c1 := grid.Coord{X: at, Y: i}, grid.Coord{X: at + 1, Y: i}
		if !horiz {
			c0, c1 = grid.Coord{X: i, Y: at}, grid.Coord{X: i, Y: at + 1}
		}
		if v, ok := p.valveBetween(c0, c1); ok {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// buildLines fills the line table.
func (p *suitePre) buildLines() {
	gr := p.c.Grid
	t := &p.lines
	t.rows, t.cols = make([]gridLine, gr.H), make([]gridLine, gr.W)
	for y := range t.rows {
		t.rows[y] = p.straightLine(true, y)
	}
	for x := range t.cols {
		t.cols[x] = p.straightLine(false, x)
	}
	t.colGaps, t.rowGaps = make([][]int, gr.W-1), make([][]int, gr.H-1)
	for x := range t.colGaps {
		t.colGaps[x] = p.gapValves(true, x)
	}
	for y := range t.rowGaps {
		t.rowGaps[y] = p.gapValves(false, y)
	}
}

// lineOf returns the straight test line through a valve and the cut valves
// of the lattice gap it spans, or false when the valve's grid line is not
// uniformly valved or lacks straight boundary ports on both ends. The
// line table must be built (buildLines).
func (p *suitePre) lineOf(valve int) (*gridLine, []int, bool) {
	a, b := p.c.Grid.EdgeEndpoints(p.c.Valve(valve).Edge)
	if a.Y == b.Y {
		ln := &p.lines.rows[a.Y]
		return ln, p.lines.colGaps[a.X], ln.ok
	}
	ln := &p.lines.cols[a.X]
	return ln, p.lines.rowGaps[a.Y], ln.ok
}

// lineStates returns one vector per distinct valve state the line
// recipe certifies: the path of every qualifying row and column, and the
// cut of every lattice gap a qualifying line crosses. A qualifying line
// is fully valved, so its valves span every gap across it. Ports do not
// enter a state, so the vectors carry none.
func (p *suitePre) lineStates() []fault.Vector {
	var out []fault.Vector
	add := func(lines []gridLine, gaps [][]int) {
		crossed := false
		for i := range lines {
			if lines[i].ok {
				out = append(out, fault.Vector{Kind: fault.PathVector, Valves: lines[i].pathValves})
				crossed = true
			}
		}
		if crossed {
			for _, gap := range gaps {
				out = append(out, fault.Vector{Kind: fault.CutVector, Valves: gap})
			}
		}
	}
	add(p.lines.rows, p.lines.colGaps)
	add(p.lines.cols, p.lines.rowGaps)
	return out
}

// instantiateLine materializes one closed-form line vector for a valve and
// certifies it. Every valve on the same line produces the same absolute
// vector, sharing the line table's slices, so the simulator's memo makes
// certification O(1) amortized.
func (p *suitePre) instantiateLine(valve int, kind fault.VectorKind) (fault.Vector, bool) {
	ln, cut, ok := p.lineOf(valve)
	if !ok {
		return fault.Vector{}, false
	}
	valves := ln.pathValves
	if kind == fault.CutVector {
		valves = cut
	}
	vec := fault.Vector{Kind: kind, Valves: valves, Sources: ln.ports[:1:1], Meters: ln.ports[1:2:2]}
	if !p.certify(vec, kind, valve) {
		return fault.Vector{}, false
	}
	return vec, true
}

// GenerateTemplates builds the suite for c, certifying on a fresh
// simulator under independent control. Results are bit-identical for any
// worker count and reach the same coverage as GenerateBaseline.
func GenerateTemplates(c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	return GenerateTemplatesCtx(context.Background(), fault.MustSimulator(c, chip.IndependentControl(c)), opts)
}

// GenerateTemplatesCtx is GenerateTemplates with cooperative cancellation,
// checked once per valve, certifying on sim (see generate).
func GenerateTemplatesCtx(ctx context.Context, sim *fault.Simulator, opts SuiteOptions) (*Suite, error) {
	return generate(ctx, sim, opts, true)
}
