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
// The simulator memoizes the good-chip behaviour at two levels. Under its
// fixed control, a vector's kind and valves decide the applied valve state,
// so one fault-free analysis per distinct state (stateEval) serves every
// vector that differs only in sources and meters; the per-vector memo
// (vectorEval) keeps only what depends on the ports. Repeated
// Detects/FaultFreeOK calls and whole campaigns never re-derive either. All
// methods are safe for concurrent use.
type Simulator struct {
	chip *chip.Chip
	ctrl *chip.Control

	mu     sync.Mutex
	cache  map[string]*vectorEval
	states map[string]*stateEval

	// metrics, when attached via SetMetrics, counts memo-cache traffic.
	metrics *Metrics
}

// vectorEval memoizes the port-dependent fault-free artifacts of one
// vector over its shared state analysis. Immutable once stored in the
// cache and may be read concurrently.
type vectorEval struct {
	state      *stateEval
	srcNodes   []int  // grid nodes of the vector's sources
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
	return &Simulator{chip: c, ctrl: ctrl, cache: map[string]*vectorEval{}, states: map[string]*stateEval{}}, nil
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
	intended := make([]bool, s.chip.NumValves())
	for _, val := range v.Valves {
		intended[val] = true
	}
	if v.Kind == PathVector {
		return s.ctrl.ExpandOpen(intended)
	}
	return s.ctrl.ExpandClosed(intended)
}

// usableReadings reports whether defect-free readings satisfy the vector's
// specification: a path vector must deliver pressure to every meter; a cut
// vector must isolate every meter from every source.
func usableReadings(k VectorKind, readings []bool) bool {
	for _, r := range readings {
		if k == PathVector && !r {
			return false
		}
		if k == CutVector && r {
			return false
		}
	}
	return len(readings) > 0
}

// VectorKey is the compact content key of a vector: its kind, valves,
// sources and meters in order, as varints with the valve and source
// counts. Vectors with equal keys are equal; suites dedup by it and the
// simulator memoizes by it.
func VectorKey(v Vector) string {
	key, _ := vectorKey(v)
	return key
}

// vectorKey returns VectorKey(v) and the length of its prefix that encodes
// only the kind and the valves: the key of the applied valve state.
func vectorKey(v Vector) (string, int) {
	buf := make([]byte, 0, 4+2*(len(v.Valves)+len(v.Sources)+len(v.Meters)))
	buf = binary.AppendUvarint(buf, uint64(v.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(v.Valves)))
	for _, x := range v.Valves {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	n := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(v.Sources)))
	for _, x := range v.Sources {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	for _, x := range v.Meters {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return string(buf), n
}

// memoize returns m[key], computing it on a miss. The mutex guards only
// the map, so concurrent misses may both compute; the first value stored
// wins and every caller shares that one immutable instance. hit reports
// whether the key was present at the first look.
func memoize[V any](mu *sync.Mutex, m map[string]V, key string, compute func() V) (v V, hit bool) {
	mu.Lock()
	v, hit = m[key]
	mu.Unlock()
	if hit {
		return v, true
	}
	v = compute()
	mu.Lock()
	if prev, raced := m[key]; raced {
		v = prev
	} else {
		m[key] = v
	}
	mu.Unlock()
	return v, false
}

// evalVector returns the memoized fault-free evaluation of v, computing it
// on first sight. The returned value is immutable.
func (s *Simulator) evalVector(v Vector) *vectorEval {
	key, n := vectorKey(v)
	ev, hit := memoize(&s.mu, s.cache, key, func() *vectorEval { return s.newVectorEval(v, s.stateOf(v, key[:n])) })
	s.metrics.noteMemo(hit)
	return ev
}

// stateOf returns the memoized analysis of the valve state v applies,
// keyed by v's kind and valves, computing it on first sight.
func (s *Simulator) stateOf(v Vector, key string) *stateEval {
	st, hit := memoize(&s.mu, s.states, key, func() *stateEval { return analyzeState(s.chip, s.OpenStates(v)) })
	if !hit {
		s.metrics.noteState()
	}
	return st
}

// newVectorEval derives v's readings from the analysis of the state it
// applies. A meter reads pressure iff its node shares a connected
// component of the open subgraph with some source node, which is the
// reachability the reference simulation computes (a source that is also
// the meter reads too).
func (s *Simulator) newVectorEval(v Vector, st *stateEval) *vectorEval {
	nodes := make([]int, len(v.Sources)+len(v.Meters))
	for i, p := range v.Sources {
		nodes[i] = s.chip.Ports[p].Node
	}
	for i, p := range v.Meters {
		nodes[len(v.Sources)+i] = s.chip.Ports[p].Node
	}
	ev := &vectorEval{
		state:      st,
		srcNodes:   nodes[:len(v.Sources):len(v.Sources)],
		meterNodes: nodes[len(v.Sources):],
		readings:   make([]bool, len(v.Meters)),
	}
	for i, m := range ev.meterNodes {
		ev.readings[i] = st.sourceComp(ev.srcNodes, st.comp[m])
		if ev.readings[i] {
			ev.anyTrue = true
		} else {
			ev.anyFalse = true
		}
	}
	ev.usable = usableReadings(v.Kind, ev.readings)
	return ev
}

// FaultFreeOK reports whether the vector behaves as specified on a
// defect-free chip: a path vector must deliver pressure to every meter; a
// cut vector must isolate every meter from every source. A vector that
// fails this check is unusable (e.g. sharing forced open a valve that
// bypasses a cut).
func (s *Simulator) FaultFreeOK(v Vector) bool {
	return s.evalVector(v).usable
}

// Detects reports whether vector v detects fault f: some meter reading
// differs between the defect-free chip and the faulty chip. This general
// definition automatically accounts for sharing-induced masking — if a
// forced-open partner valve provides a bypass around a stuck-at-0 valve,
// or a forced-closed partner blocks the leak path of a stuck-at-1 valve,
// the readings do not differ and the fault goes undetected.
//
// The fault-free analysis is memoized per valve state and per vector, so
// repeated calls with the same vector only apply the fast-path rules.
func (s *Simulator) Detects(v Vector, f Fault) bool {
	var t ruleTally
	det := s.detectsEval(s.evalVector(v), f, &t)
	s.metrics.addRules(t)
	return det
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

// EvaluateCoverage fault-simulates every (vector, fault) pair and returns
// the aggregate coverage. Vectors that fail FaultFreeOK contribute no
// detections (a vector that misbehaves on a good chip would reject good
// chips, so it must not be counted on).
//
// The campaign runs serially; use an Engine for the parallel worker pool.
// Both paths produce bit-identical Coverage, including Undetected order.
func (s *Simulator) EvaluateCoverage(vectors []Vector, faults []Fault) Coverage {
	return NewEngine(s, 1).EvaluateCoverage(vectors, faults)
}
