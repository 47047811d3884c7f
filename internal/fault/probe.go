package fault

import (
	"fmt"

	"repro/internal/chip"
)

// Probe evaluates test vectors on one chip under one control assignment
// without a memo. Each call expands the vector's valve state, runs the
// state analysis and derives the readings into buffers the probe owns,
// then applies detectsEval's rules: the code and the verdicts of the
// Simulator, with none of its keys or its state memo. It suits callers
// that analyse each vector about once under a control, such as the flow's
// sharing check, which meets a new control per candidate scheme. A warmed
// probe allocates nothing.
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
// Certifies without the memo.
func (p *Probe) Certifies(v Vector, f Fault) bool {
	return p.eval(v).certifies(p.chip, f, p.metrics)
}

// Cover is Simulator's Cover without the memo: it ORs v's detections
// among faults into covered and reports whether v is usable.
func (p *Probe) Cover(v Vector, faults []Fault, covered []uint64) bool {
	return p.eval(v).cover(p.chip, faults, covered, p.metrics)
}
