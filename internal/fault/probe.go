package fault

import (
	"fmt"

	"repro/internal/chip"
)

// Probe evaluates test vectors on one chip under one control assignment
// without a memo. Each call expands the vector's valve state, runs the
// state analysis and derives the readings into buffers the probe owns,
// then applies detectsEval's rules: the code and the verdicts of the
// memoized Simulator, with none of its keys, records or maps. It suits
// callers that analyse each vector about once under a control, such as
// the flow's sharing check, which meets a new control per candidate
// scheme. A warmed probe allocates nothing.
//
// The zero Probe is ready for Reset. A Probe must not be shared between
// goroutines.
type Probe struct {
	chip    *chip.Chip
	ctrl    *chip.Control
	metrics *Metrics
	lines   []bool // per control line scratch for ExpandInto
	state   stateEval
	scratch tarjanScratch
	ev      vectorEval
}

// Reset points the probe at chip c under ctrl and counts its analyses on
// m (nil for none), keeping its buffers. It returns ErrControlMismatch
// (test with errors.Is) when ctrl was built for a different chip.
func (p *Probe) Reset(c *chip.Chip, ctrl *chip.Control, m *Metrics) error {
	if ctrl.Chip() != c {
		return fmt.Errorf("%w: control is for %q, chip is %q", ErrControlMismatch, ctrl.Chip().Name, c.Name)
	}
	p.chip, p.ctrl, p.metrics = c, ctrl, m
	return nil
}

// eval analyses v into the probe's buffers. The result is valid until the
// next call.
func (p *Probe) eval(v Vector) *vectorEval {
	p.lines = resize(p.lines, p.ctrl.NumLines())
	open := resize(p.state.open, p.chip.NumValves())
	p.ctrl.ExpandInto(v.Valves, v.Kind != PathVector, open, p.lines)
	analyzeState(p.chip, open, &p.state, &p.scratch)
	p.metrics.noteState()
	p.ev.fill(p.chip, v, &p.state)
	return &p.ev
}

// Certifies reports whether v is usable and detects f: Simulator's
// FaultFreeOK(v) && Detects(v, f).
func (p *Probe) Certifies(v Vector, f Fault) bool {
	ev := p.eval(v)
	if !ev.usable {
		return false
	}
	var t ruleTally
	det := detectsEval(p.chip, ev, f, &t)
	p.metrics.addRules(t)
	return det
}

// Cover sets bit i of covered for every faults[i] that v detects, skipping
// the bits already set. An unusable v sets none, so covering a vector set
// one vector at a time yields the detected faults of its coverage
// campaign. covered must hold at least len(faults) bits.
func (p *Probe) Cover(v Vector, faults []Fault, covered []uint64) {
	ev := p.eval(v)
	if !ev.usable {
		return
	}
	var t ruleTally
	set := bitset(covered)
	for i, f := range faults {
		if !set.has(i) && detectsEval(p.chip, ev, f, &t) {
			set.set(i)
		}
	}
	p.metrics.addRules(t)
}
