// Template test generation for regular valve arrays.
//
// On an FPVA almost every valve sees the same local world as thousands of
// others, and the engine exploits that symmetry through two families of
// translation-equivalence classes:
//
//   - Line classes. A valve whose full grid row (horizontal valves) or
//     column (vertical valves) is uniformly valved, with boundary ports
//     closing both ends of the line, is tested by straight-line vectors:
//     the path vector opens the whole line plus the two port stubs, and
//     the cut vector closes every channel crossing the valve's lattice
//     gap. Both are closed-form — no routing or max-flow solve — and every
//     valve on the same line shares the same absolute vectors, so the
//     simulator's vector memo collapses their certification cost. The
//     class key is the line orientation plus the stub offsets, so a whole
//     FPVA typically folds into a few dozen classes.
//
//   - Tile classes. For valves that are locally regular but not on a
//     uniform line, classSignature captures the exact neighbourhood: the
//     channel occupancy window, the clamped distance to the boundary, and
//     the candidate test ports at their relative offsets. Valves with
//     equal signatures form a class whose path/cut pair is solved once
//     (on the first-seen valve), stored in anchor-relative form, and
//     instantiated for every other member by translating the template.
//
// Classes of both families live in a content-keyed once-map shared across
// Generate calls. Every instantiation is structurally validated (edges in
// bounds and valved, ports present) and certified by the same
// reach/pressure check the full solve uses; a failed validation falls back
// to the full per-valve solve, so class reuse is purely a performance
// property — never a correctness one.
package testgen

import (
	"context"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/par"
)

const (
	// sigBoundaryClamp caps the per-side boundary distances recorded in a
	// class signature: tiles deeper than this see the boundary identically.
	sigBoundaryClamp = 4
	// sigWindow is the radius of the local occupancy window.
	sigWindow = 2
)

// portSideAlong encodes a candidate test port relative to a valve anchor.
// Boundary ports are encoded by their side ('W','E','N','S', first match
// in that fixed order) plus the along-boundary offset from the anchor —
// NOT by their absolute anchor-relative coordinates — so two valves at
// the same boundary proximity share a signature even when the grid
// dimensions behind them differ (the irregular-chip class collapse).
// Interior ports fall back to 'I' with both offsets.
func portSideAlong(gr *grid.Grid, c, anchor grid.Coord) (side byte, along, along2 int) {
	switch {
	case c.X == 0:
		return 'W', c.Y - anchor.Y, 0
	case c.X == gr.W-1:
		return 'E', c.Y - anchor.Y, 0
	case c.Y == 0:
		return 'N', c.X - anchor.X, 0
	case c.Y == gr.H-1:
		return 'S', c.X - anchor.X, 0
	default:
		return 'I', c.X - anchor.X, c.Y - anchor.Y
	}
}

// resolvePort maps a (side, along) encoding back to an absolute
// coordinate on the resolving chip's own grid.
func resolvePort(gr *grid.Grid, anchor grid.Coord, side byte, along, along2 int) grid.Coord {
	switch side {
	case 'W':
		return grid.Coord{X: 0, Y: anchor.Y + along}
	case 'E':
		return grid.Coord{X: gr.W - 1, Y: anchor.Y + along}
	case 'N':
		return grid.Coord{X: anchor.X + along, Y: 0}
	case 'S':
		return grid.Coord{X: anchor.X + along, Y: gr.H - 1}
	default:
		return grid.Coord{X: anchor.X + along, Y: anchor.Y + along2}
	}
}

// classSignature returns the tile-class key of a valve and its anchor (the
// top-left endpoint of its edge). Valves with equal signatures have
// translation-identical local neighbourhoods and candidate test ports at
// equal relative positions.
func (p *suitePre) classSignature(valve int) (string, grid.Coord) {
	gr := p.c.Grid
	anchor, other := gr.EdgeEndpoints(p.c.Valve(valve).Edge)
	buf := make([]byte, 0, 96)
	if anchor.X == other.X {
		buf = append(buf, 'V')
	} else {
		buf = append(buf, 'H')
	}
	clamp := func(d int) byte {
		if d > sigBoundaryClamp {
			d = sigBoundaryClamp
		}
		return byte('0' + d)
	}
	buf = append(buf, clamp(anchor.X), clamp(anchor.Y), clamp(gr.W-1-anchor.X), clamp(gr.H-1-anchor.Y))
	for dy := -sigWindow; dy <= sigWindow; dy++ {
		for dx := -sigWindow; dx <= sigWindow; dx++ {
			co := grid.Coord{X: anchor.X + dx, Y: anchor.Y + dy}
			if !gr.InBounds(co) {
				buf = append(buf, '#')
				continue
			}
			n := gr.NodeAt(co)
			bits := byte(0)
			if p.portAt[n] >= 0 {
				bits |= 1
			}
			if right := (grid.Coord{X: co.X + 1, Y: co.Y}); gr.InBounds(right) {
				if e, ok := gr.EdgeBetweenCoords(co, right); ok && p.channelOnly(e) {
					bits |= 2
				}
			}
			if down := (grid.Coord{X: co.X, Y: co.Y + 1}); gr.InBounds(down) {
				if e, ok := gr.EdgeBetweenCoords(co, down); ok && p.channelOnly(e) {
					bits |= 4
				}
			}
			buf = append(buf, 'a'+bits)
		}
	}
	// The candidate test ports: class members must agree on where their
	// solve would look, or the template ports would not translate.
	// Boundary ports use the side+along encoding (see portSideAlong).
	u, w := p.g.Endpoints(p.c.Valve(valve).Edge)
	for _, pr := range p.candidatePairs(u, w) {
		sc := gr.CoordOf(p.c.Ports[pr[0]].Node)
		dc := gr.CoordOf(p.c.Ports[pr[1]].Node)
		for _, co := range []grid.Coord{sc, dc} {
			side, a1, a2 := portSideAlong(gr, co, anchor)
			buf = append(buf, ';', side, ';')
			buf = strconv.AppendInt(buf, int64(a1), 10)
			if side == 'I' {
				buf = append(buf, ';')
				buf = strconv.AppendInt(buf, int64(a2), 10)
			}
		}
	}
	return string(buf), anchor
}

// gridLine is the straight test line along one grid row (horizontal
// valves) or column (vertical valves): whether the line is fully valved
// with straight boundary ports closing both ends, those ports (source,
// meter), the sorted path valves (stubs + full line), and the line-class
// key built from the orientation and the ports' stub offsets. Every valve
// on the line shares these.
type gridLine struct {
	ok         bool
	ports      []int
	pathValves []int
	sig        string
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
// Returns the port, its offset from the line end, the stub valves, and
// whether one exists.
func (p *suitePre) straightPort(horiz bool, fixed, along int) (port, off int, stub []int, ok bool) {
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
			return cd.port, cd.coord - along, valves, true
		}
	}
	return 0, 0, nil, false
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
	n, orient := gr.W, byte('H')
	if !horiz {
		n, orient = gr.H, 'V'
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
	srcPort, srcOff, srcStub, ok := p.straightPort(horiz, 0, at)
	if !ok {
		return gridLine{}
	}
	dstPort, dstOff, dstStub, ok := p.straightPort(horiz, n-1, at)
	if !ok || srcPort == dstPort {
		return gridLine{}
	}
	path := append(append(valves, srcStub...), dstStub...)
	sort.Ints(path)
	sig := make([]byte, 0, 16)
	sig = append(sig, 'L', ';', orient, ';')
	sig = strconv.AppendInt(sig, int64(srcOff), 10)
	sig = append(sig, ';')
	sig = strconv.AppendInt(sig, int64(dstOff), 10)
	return gridLine{ok: true, ports: []int{srcPort, dstPort}, pathValves: path, sig: string(sig)}
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
// uniformly valved or lacks straight boundary ports on both ends.
func (p *suitePre) lineOf(valve int) (*gridLine, []int, bool) {
	p.linesOnce.Do(p.buildLines)
	a, b := p.c.Grid.EdgeEndpoints(p.c.Valve(valve).Edge)
	if a.Y == b.Y {
		ln := &p.lines.rows[a.Y]
		return ln, p.lines.colGaps[a.X], ln.ok
	}
	ln := &p.lines.cols[a.X]
	return ln, p.lines.rowGaps[a.Y], ln.ok
}

// lineSignature returns the line-class key of a valve: the orientation and
// the stub offsets of its straight boundary ports. Every valve whose line
// shares these is tested by a translate of the same straight recipe; the
// key is chip-independent, so an engine sweeping growing FPVA sizes reuses
// the classes.
func (p *suitePre) lineSignature(valve int) (string, bool) {
	ln, _, ok := p.lineOf(valve)
	return ln.sig, ok
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

// tmplEdge is one channel edge in anchor-relative form: the edge from
// anchor+(DX,DY) to its right (horizontal) or down (vertical) neighbour.
type tmplEdge struct {
	DX, DY int
	Vert   bool
}

// tmplVec is one vector in anchor-relative form. Ports use the same
// side+along encoding as the class signature (portSideAlong), so an
// instantiation resolves boundary ports against its own chip's grid
// dimensions; interior ports ('I') keep both anchor-relative offsets in
// SrcAlong/SrcAlong2.
type tmplVec struct {
	Edges               []tmplEdge
	SrcSide, DstSide    byte
	SrcAlong, SrcAlong2 int
	DstAlong, DstAlong2 int
}

// template is one solved symmetry class. Line templates carry no stored
// vectors — the straight recipe is re-derived per chip and valve, which is
// what makes them safe to share across chips of different sizes. For tile
// templates, HasPath/HasCut mirror the solve outcome of the class
// representative; a missing side sends every class member to the full
// per-valve solve, exactly like the baseline.
type template struct {
	Line            bool
	HasPath, HasCut bool
	Path, Cut       tmplVec
}

// relativize converts a solved vector into anchor-relative form.
func (p *suitePre) relativize(vec fault.Vector, anchor grid.Coord) tmplVec {
	gr := p.c.Grid
	var tv tmplVec
	tv.SrcSide, tv.SrcAlong, tv.SrcAlong2 = portSideAlong(gr, gr.CoordOf(p.c.Ports[vec.Sources[0]].Node), anchor)
	tv.DstSide, tv.DstAlong, tv.DstAlong2 = portSideAlong(gr, gr.CoordOf(p.c.Ports[vec.Meters[0]].Node), anchor)
	tv.Edges = make([]tmplEdge, 0, len(vec.Valves))
	for _, v := range vec.Valves {
		a, b := gr.EdgeEndpoints(p.c.Valve(v).Edge)
		tv.Edges = append(tv.Edges, tmplEdge{DX: a.X - anchor.X, DY: a.Y - anchor.Y, Vert: a.X == b.X})
	}
	return tv
}

// instantiate translates a template to the given anchor and certifies the
// result: every edge must be in bounds and valved, both ports must exist,
// and the vector must pass the fault-free check and detect the target
// fault of the valve it is stamped for. Reports false on any failure.
func (p *suitePre) instantiate(tv tmplVec, anchor grid.Coord, kind fault.VectorKind, valve int) (fault.Vector, bool) {
	gr := p.c.Grid
	valves := make([]int, 0, len(tv.Edges))
	for _, te := range tv.Edges {
		c0 := grid.Coord{X: anchor.X + te.DX, Y: anchor.Y + te.DY}
		c1 := grid.Coord{X: c0.X + 1, Y: c0.Y}
		if te.Vert {
			c1 = grid.Coord{X: c0.X, Y: c0.Y + 1}
		}
		if !gr.InBounds(c0) || !gr.InBounds(c1) {
			return fault.Vector{}, false
		}
		e, ok := gr.EdgeBetweenCoords(c0, c1)
		if !ok {
			return fault.Vector{}, false
		}
		v, ok := p.c.ValveOnEdge(e)
		if !ok {
			return fault.Vector{}, false
		}
		valves = append(valves, v)
	}
	srcC := resolvePort(gr, anchor, tv.SrcSide, tv.SrcAlong, tv.SrcAlong2)
	dstC := resolvePort(gr, anchor, tv.DstSide, tv.DstAlong, tv.DstAlong2)
	if !gr.InBounds(srcC) || !gr.InBounds(dstC) {
		return fault.Vector{}, false
	}
	src, dst := p.portAt[gr.NodeAt(srcC)], p.portAt[gr.NodeAt(dstC)]
	if src < 0 || dst < 0 || src == dst {
		return fault.Vector{}, false
	}
	// Valve IDs are edge-ID ordered, but translation does not preserve
	// that order across the row-major edge numbering; re-sort.
	sort.Ints(valves)
	vec := fault.Vector{Kind: kind, Valves: valves, Sources: []int{src}, Meters: []int{dst}}
	if !p.certify(vec, kind, valve) {
		return fault.Vector{}, false
	}
	return vec, true
}

// solveTemplate runs the full solve on a class representative and stores
// the result in relative form.
func (p *suitePre) solveTemplate(rep int, anchor grid.Coord) *template {
	t := &template{}
	if vec, ok := p.solvePathFor(rep); ok {
		t.HasPath, t.Path = true, p.relativize(vec, anchor)
	}
	if vec, ok := p.solveCutFor(rep); ok {
		t.HasCut, t.Cut = true, p.relativize(vec, anchor)
	}
	return t
}

// TemplateEngine generates per-valve suites by tile-class templates. The
// template cache persists across Generate calls, so a sweep over growing
// FPVA sizes re-solves only the classes it has not seen; every reused
// template is still validated and certified on the new chip before use.
// An engine is safe for concurrent use. For byte-reproducible output
// across processes use a fresh engine per chip (cache warmth can change
// which — equally certified — vectors an instantiation produces).
type TemplateEngine struct {
	cache *artifact.Cache[*template]
}

// NewTemplateEngine returns an engine with an empty unbounded template
// cache (class populations are small).
func NewTemplateEngine() *TemplateEngine {
	return &TemplateEngine{cache: artifact.NewCache[*template]()}
}

// Generate builds the suite for c. Results are bit-identical for any
// worker count and reach the same coverage as GenerateBaseline.
func (e *TemplateEngine) Generate(c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	return e.GenerateCtx(context.Background(), c, opts)
}

// GenerateCtx is Generate with cooperative cancellation, checked once per
// class solve and once per valve instantiation.
func (e *TemplateEngine) GenerateCtx(ctx context.Context, c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pre := newSuitePre(c)
	nv := c.NumValves()

	// Classify every valve: line classes when the valve sits on a fully
	// valved grid line with straight boundary ports, tile classes
	// otherwise. Class representatives are first-seen valves, so the
	// solved templates are independent of worker count.
	sigs := make([]string, nv)
	anchors := make([]grid.Coord, nv)
	repOf := make(map[string]int, nv/8)
	var classes []string
	lineClasses := 0
	for v := 0; v < nv; v++ {
		if lsig, ok := pre.lineSignature(v); ok {
			sigs[v] = lsig
		} else {
			sigs[v], anchors[v] = pre.classSignature(v)
		}
		if _, ok := repOf[sigs[v]]; !ok {
			repOf[sigs[v]] = v
			classes = append(classes, sigs[v])
			if sigs[v][0] == 'L' {
				lineClasses++
			}
		}
	}

	// Solve one template per class, racing workers deduplicated by the
	// once-map (cache hits are classes solved by an earlier Generate).
	// Line classes need no solve: their recipe is closed-form.
	tmpls := make([]*template, len(classes))
	var hits atomic.Int64
	err := par.For(ctx, par.Workers(opts.Workers), len(classes), func(i int) {
		rep := repOf[classes[i]]
		t, hit := e.cache.Do(classes[i], func() *template {
			if classes[i][0] == 'L' {
				return &template{Line: true, HasPath: true, HasCut: true}
			}
			return pre.solveTemplate(rep, anchors[rep])
		})
		if hit {
			hits.Add(1)
		}
		tmpls[i] = t
	})
	if err != nil {
		return nil, err
	}
	tmplOf := make(map[string]*template, len(classes))
	for i, sig := range classes {
		tmplOf[sig] = tmpls[i]
	}

	// Instantiate per valve: translate, validate, certify; fall back to
	// the full solve when any step fails.
	slots := make([]valveVectors, nv)
	var instantiated, fallbacks atomic.Int64
	err = par.For(ctx, par.Workers(opts.Workers), nv, func(v int) {
		t := tmplOf[sigs[v]]
		vv := &slots[v]
		if t.HasPath {
			vec, ok := fault.Vector{}, false
			if t.Line {
				vec, ok = pre.instantiateLine(v, fault.PathVector)
			} else {
				vec, ok = pre.instantiate(t.Path, anchors[v], fault.PathVector, v)
			}
			if ok {
				vv.path, vv.hasPath = vec, true
				instantiated.Add(1)
			}
		}
		if !vv.hasPath {
			if vec, ok := pre.solvePathFor(v); ok {
				vv.path, vv.hasPath = vec, true
				fallbacks.Add(1)
			}
		}
		if t.HasCut {
			vec, ok := fault.Vector{}, false
			if t.Line {
				vec, ok = pre.instantiateLine(v, fault.CutVector)
			} else {
				vec, ok = pre.instantiate(t.Cut, anchors[v], fault.CutVector, v)
			}
			if ok {
				vv.cut, vv.hasCut = vec, true
				instantiated.Add(1)
			}
		}
		if !vv.hasCut {
			if vec, ok := pre.solveCutFor(v); ok {
				vv.cut, vv.hasCut = vec, true
				fallbacks.Add(1)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	s := assembleSuite(c, slots)
	s.Stats.Engine = "template"
	s.Stats.Classes = len(classes)
	s.Stats.LineClasses = lineClasses
	s.Stats.TemplateHits = hits.Load()
	s.Stats.Instantiated = instantiated.Load()
	s.Stats.Fallbacks = fallbacks.Load()
	s.Stats.PathSolves = pre.pathSolves.Load()
	s.Stats.CutSolves = pre.cutSolves.Load()
	s.Stats.SimEvals = pre.metrics.Snapshot().MemoMisses
	return s, nil
}

// GenerateTemplates is a one-shot convenience over a fresh engine.
func GenerateTemplates(c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	return NewTemplateEngine().Generate(c, opts)
}
