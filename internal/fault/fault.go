// Package fault implements the paper's fault model for continuous-flow
// biochips and a pressure-propagation simulator used to validate test
// vectors, compute fault coverage, and detect the masking effects of valve
// sharing (Fig. 6 of the paper).
//
// Fault model (Section 2):
//
//   - stuck-at-0: a valve that cannot open, or a blocked channel. Since
//     every channel edge is guarded by exactly one valve, both manifest as
//     "this edge never conducts pressure".
//   - stuck-at-1: a valve that cannot close; the edge always conducts.
//   - leakage (extension, mentioned but not evaluated in the paper): a
//     defective membrane lets pressure cross a closed valve. Observationally
//     identical to stuck-at-1 in the pressure abstraction, but reported as
//     its own class.
//
// Pressure is simulated as reachability: air applied at source ports
// propagates through every channel edge whose valve is open; a meter reads
// "pressure" iff its port node is reachable from any source.
package fault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chip"
)

// Kind classifies manufacturing defects.
type Kind int

// Defect kinds.
const (
	StuckAt0 Kind = iota // valve cannot open / channel blocked
	StuckAt1             // valve cannot close
	Leakage              // pressure leaks across a closed valve (extension)
)

func (k Kind) String() string {
	switch k {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case Leakage:
		return "leakage"
	}
	return "unknown"
}

// Fault is a single defect at a valve.
type Fault struct {
	Kind  Kind
	Valve int
}

func (f Fault) String() string { return fmt.Sprintf("%v@v%d", f.Kind, f.Valve) }

// AllFaults enumerates the stuck-at-0 and stuck-at-1 faults of every valve
// (the fault list the paper's test sets must cover).
func AllFaults(c *chip.Chip) []Fault {
	return AllFaultsOfKinds(c, StuckAt0, StuckAt1)
}

// AllFaultsOfKinds enumerates faults of the given kinds for every valve.
// Passing Leakage extends the campaign to the membrane-leakage defects the
// paper mentions but does not evaluate; in the pressure abstraction they
// behave like stuck-at-1 and are covered by the same cut vectors.
func AllFaultsOfKinds(c *chip.Chip, kinds ...Kind) []Fault {
	out := make([]Fault, 0, len(kinds)*c.NumValves())
	for _, k := range kinds {
		for v := 0; v < c.NumValves(); v++ {
			out = append(out, Fault{Kind: k, Valve: v})
		}
	}
	return out
}

// VectorKind distinguishes the two test vector families.
type VectorKind int

// Vector kinds: a path vector opens one source→meter path (detects
// stuck-at-0 on its valves); a cut vector closes a separating valve set
// (detects stuck-at-1 on its valves).
const (
	PathVector VectorKind = iota
	CutVector
)

func (k VectorKind) String() string {
	if k == PathVector {
		return "path"
	}
	return "cut"
}

// Vector is one test vector. Valves lists the distinguished set: for a
// PathVector the valves driven open (everything else is driven closed);
// for a CutVector the valves driven closed (everything else driven open).
// Sources and Meters are port IDs. Single-source single-meter DFT vectors
// have exactly one of each; the multi-instrument baseline may use several.
type Vector struct {
	Kind    VectorKind
	Valves  []int
	Sources []int
	Meters  []int
}

func (v Vector) String() string {
	return fmt.Sprintf("%v vector: %d valves, src %v, meters %v", v.Kind, len(v.Valves), v.Sources, v.Meters)
}

// Simulator evaluates test vectors on a chip under a control assignment.
// The control assignment captures valve sharing: intended valve states are
// expanded to actual states line by line before simulation.
//
// The simulator memoizes one thing: the fault-free analysis of each
// applied valve state (stateEval). Under its fixed control a vector's kind
// and valves decide that state, so vectors that differ only in sources and
// meters share one analysis, and a suite and its campaign on one simulator
// share them all. Each query derives the vector's port-dependent readings
// from the state into a record the caller owns; Certifies and Cover answer
// the questions a generator asks about one vector in one evaluation. All
// methods are safe for concurrent use. A caller that analyses each vector
// about once under a control gains nothing from the memo and uses a Probe.
type Simulator struct {
	chip *chip.Chip
	ctrl *chip.Control

	mu     sync.Mutex
	states map[string]*stateEval

	// metrics, when attached via SetMetrics, counts state-memo traffic.
	metrics *Metrics
}

// vectorEval holds the port-dependent fault-free artifacts of one vector
// over the analysis of the state it applies. Simulator queries and
// campaigns fill one per vector; a Probe refills its own for every vector.
type vectorEval struct {
	state      *stateEval
	srcNodes   []int  // grid nodes of the vector's sources; shares meterNodes' backing
	meterNodes []int  // grid nodes of the vector's meters
	readings   []bool // defect-free meter readings
	usable     bool   // FaultFreeOK
	anyTrue    bool   // some defect-free reading is true
	anyFalse   bool   // some defect-free reading is false
}

// ErrControlMismatch reports a control assignment built for a different
// chip than the one under simulation.
var ErrControlMismatch = errors.New("fault: control assignment belongs to a different chip")

// NewSimulator returns a simulator for the chip under the given control
// layer. Pass chip.IndependentControl for a sharing-free chip. It returns
// ErrControlMismatch (test with errors.Is) when the control assignment was
// built for a different chip.
func NewSimulator(c *chip.Chip, ctrl *chip.Control) (*Simulator, error) {
	if ctrl.Chip() != c {
		return nil, fmt.Errorf("%w: control is for %q, chip is %q", ErrControlMismatch, ctrl.Chip().Name, c.Name)
	}
	return &Simulator{chip: c, ctrl: ctrl, states: map[string]*stateEval{}}, nil
}

// MustSimulator is NewSimulator for call sites where the chip/control pair
// is constructed together and a mismatch is a programming error; it panics
// on ErrControlMismatch (the regexp.MustCompile idiom).
func MustSimulator(c *chip.Chip, ctrl *chip.Control) *Simulator {
	s, err := NewSimulator(c, ctrl)
	if err != nil {
		panic(err)
	}
	return s
}

// Chip returns the chip under simulation.
func (s *Simulator) Chip() *chip.Chip { return s.chip }

// OpenStates computes the actual fault-free valve states when vector v is
// applied, including valves forced by control sharing.
func (s *Simulator) OpenStates(v Vector) []bool {
	open := make([]bool, s.chip.NumValves())
	s.ctrl.ExpandInto(v.Valves, v.Kind != PathVector, open, make([]bool, s.ctrl.NumLines()))
	return open
}

// usableReadings reports whether defect-free readings satisfy the vector's
// specification: a path vector must deliver pressure to every meter; a cut
// vector (any other kind, as in ExpandInto) must isolate every meter from
// every source.
func usableReadings(k VectorKind, readings []bool) bool {
	for _, r := range readings {
		if r != (k == PathVector) {
			return false
		}
	}
	return len(readings) > 0
}

// VectorKey is the compact content key of a vector: its kind, valves,
// sources and meters in order, as varints with the valve and source
// counts. Vectors with equal keys are equal; suites dedup by it.
func VectorKey(v Vector) string {
	buf := appendStateKey(make([]byte, 0, 4+2*(len(v.Valves)+len(v.Sources)+len(v.Meters))), v)
	buf = binary.AppendUvarint(buf, uint64(len(v.Sources)))
	for _, x := range v.Sources {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	for _, x := range v.Meters {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return string(buf)
}

// appendStateKey appends the key of the valve state v applies under a
// fixed control, its kind and valves, to buf: the prefix of VectorKey(v).
func appendStateKey(buf []byte, v Vector) []byte {
	buf = binary.AppendUvarint(buf, uint64(v.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(v.Valves)))
	for _, x := range v.Valves {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// eval fills ev with v's evaluation over the memoized analysis of the
// state v applies.
func (s *Simulator) eval(v Vector, ev *vectorEval) {
	ev.fill(s.chip, v, s.stateOf(v))
}

// stateOf returns the memoized analysis of the valve state v applies,
// computing it on first sight. The key becomes a string only when stored.
// The mutex guards only the map, so concurrent misses may both compute;
// the first analysis stored wins and every caller shares that one
// immutable instance.
func (s *Simulator) stateOf(v Vector) *stateEval {
	key := appendStateKey(make([]byte, 0, 2+2*len(v.Valves)), v)
	s.mu.Lock()
	st, hit := s.states[string(key)]
	s.mu.Unlock()
	s.metrics.noteMemo(hit)
	if hit {
		return st
	}
	st = new(stateEval)
	analyzeState(s.chip, s.OpenStates(v), st, new(tarjanScratch))
	s.metrics.noteState()
	s.mu.Lock()
	if prev, raced := s.states[string(key)]; raced {
		st = prev
	} else {
		s.states[string(key)] = st
	}
	s.mu.Unlock()
	return st
}

// fill derives ev as the evaluation of v on c from the analysis st of the
// state v applies, reusing ev's buffers when they are large enough. A
// meter reads pressure iff its node shares a connected component of the
// open subgraph with some source node, which is the reachability the
// reference simulation computes (a source that is also the meter reads
// too).
func (ev *vectorEval) fill(c *chip.Chip, v Vector, st *stateEval) {
	ns := len(v.Sources)
	nodes := resize(ev.srcNodes, ns+len(v.Meters))
	for i, p := range v.Sources {
		nodes[i] = c.Ports[p].Node
	}
	for i, p := range v.Meters {
		nodes[ns+i] = c.Ports[p].Node
	}
	ev.state = st
	ev.srcNodes, ev.meterNodes = nodes[:ns], nodes[ns:]
	ev.readings = resize(ev.readings, len(v.Meters))
	ev.anyTrue, ev.anyFalse = false, false
	for i, m := range ev.meterNodes {
		ev.readings[i] = st.sourceComp(ev.srcNodes, st.comp[m])
		if ev.readings[i] {
			ev.anyTrue = true
		} else {
			ev.anyFalse = true
		}
	}
	ev.usable = usableReadings(v.Kind, ev.readings)
}

// FaultFreeOK reports whether the vector behaves as specified on a
// defect-free chip: a path vector must deliver pressure to every meter; a
// cut vector must isolate every meter from every source. A vector that
// fails this check is unusable (e.g. sharing forced open a valve that
// bypasses a cut).
func (s *Simulator) FaultFreeOK(v Vector) bool {
	var ev vectorEval
	s.eval(v, &ev)
	return ev.usable
}

// Detects reports whether vector v detects fault f: some meter reading
// differs between the defect-free chip and the faulty chip. This general
// definition automatically accounts for sharing-induced masking — if a
// forced-open partner valve provides a bypass around a stuck-at-0 valve,
// or a forced-closed partner blocks the leak path of a stuck-at-1 valve,
// the readings do not differ and the fault goes undetected.
//
// Each call derives v's readings again from the memoized state analysis;
// a caller with several questions about one vector asks Certifies or
// Cover.
func (s *Simulator) Detects(v Vector, f Fault) bool {
	var ev vectorEval
	s.eval(v, &ev)
	var t ruleTally
	det := detectsEval(s.chip, &ev, f, &t)
	s.metrics.addRules(t)
	return det
}

// Certifies reports whether v is usable and detects f, FaultFreeOK(v) &&
// Detects(v, f), in one evaluation of v.
func (s *Simulator) Certifies(v Vector, f Fault) bool {
	var ev vectorEval
	s.eval(v, &ev)
	return ev.certifies(s.chip, f, s.metrics)
}

// Cover sets bit i of covered for every faults[i] that v detects, skipping
// the bits already set, and reports whether v is usable. An unusable v
// sets none, so covering a vector set one vector at a time yields the
// detected faults of its coverage campaign. covered must hold at least
// len(faults) bits.
func (s *Simulator) Cover(v Vector, faults []Fault, covered []uint64) bool {
	var ev vectorEval
	s.eval(v, &ev)
	return ev.cover(s.chip, faults, covered, s.metrics)
}

// certifies is Certifies over an evaluation of v on c, counting the rule
// that settled the verdict on m.
func (ev *vectorEval) certifies(c *chip.Chip, f Fault, m *Metrics) bool {
	if !ev.usable {
		return false
	}
	var t ruleTally
	det := detectsEval(c, ev, f, &t)
	m.addRules(t)
	return det
}

// cover is Cover over an evaluation of v on c, counting the rules that
// settled the verdicts on m.
func (ev *vectorEval) cover(c *chip.Chip, faults []Fault, covered []uint64, m *Metrics) bool {
	if !ev.usable {
		return false
	}
	var t ruleTally
	set := bitset(covered)
	for i, f := range faults {
		if !set.has(i) && detectsEval(c, ev, f, &t) {
			set.set(i)
		}
	}
	m.addRules(t)
	return true
}

// Coverage summarizes a fault-simulation campaign.
type Coverage struct {
	Total      int
	Detected   int
	Undetected []Fault
}

// Full reports whether every fault was detected.
func (c Coverage) Full() bool { return c.Detected == c.Total }

// Ratio returns detected/total in [0,1].
func (c Coverage) Ratio() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.Total)
}

func (c Coverage) String() string {
	return fmt.Sprintf("coverage %d/%d (%.1f%%)", c.Detected, c.Total, 100*c.Ratio())
}

// EvaluateCoverage fault-simulates the vectors against the faults and
// returns the aggregate coverage: an Engine's campaign on s. Vectors that
// fail FaultFreeOK contribute no detections (a vector that misbehaves on a
// good chip would reject good chips, so it must not be counted on).
func (s *Simulator) EvaluateCoverage(vectors []Vector, faults []Fault) Coverage {
	return NewEngine(s, 1).EvaluateCoverage(vectors, faults)
}
