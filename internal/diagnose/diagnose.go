// Package diagnose implements adaptive fault diagnosis and
// test-around-fault reconfiguration for continuous-flow biochips — the
// natural continuation of the paper's DFT flow: once the test vectors of
// the augmented chip DETECT a defect, diagnosis localizes it by applying
// vectors adaptively, and reconfiguration reschedules the bioassay around
// the located fault so the chip stays usable.
//
// Diagnosis works on the detection matrix (fault.DetectionMatrix): the
// candidate set of faults consistent with all observations so far is a
// bitset over the fault list; applying vector v and observing a
// detect/no-detect outcome intersects the candidates with v's detection
// row or its complement. Adaptive selection greedily applies the unapplied
// vector with the best expected split of the surviving candidates —
// maximizing min(d, n-d), the integer form of maximizing binary entropy
// H(d/n), so selection needs no floating point and is bit-for-bit
// deterministic (ties break toward the lowest vector index). Iteration
// stops when no vector splits the candidates further (the suspect set has
// shrunk to the true fault's signature-equivalence class), the vector
// budget is exhausted, or the context expires. Note that adaptive
// stopping trusts the fault model: once the candidates are unsplittable
// (often a singleton) no confirming vector is applied, so a defect
// OUTSIDE the model can masquerade as its nearest modeled fault; only an
// exhaustive application (the replay tier, or a Session driven over every
// vector) can prove observations inconsistent with the whole fault list.
//
// The package wraps the engine in a solve.Runner degradation chain
// ("diagnose-adaptive" -> "diagnose-greedy" -> "diagnose-replay") and adds
// the reconfiguration chain ("reconf-strict" -> "reconf-reroute" ->
// "reconf-relaxed") that reschedules via sched with the located faults
// banned.
package diagnose

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"repro/internal/fault"
)

// ErrBudget reports that a diagnosis tier exhausted its vector budget
// while the candidate set could still be split further. The degradation
// chain treats it as that tier's infeasibility and falls through to the
// next tier; the final replay tier ignores the budget and always
// completes.
var ErrBudget = errors.New("diagnose: vector budget exhausted")

// Oracle answers what the chip under test does when a vector is applied:
// true when the observed meter readings differ from the fault-free
// readings (a detection), false when they match. Index v refers to the
// detection matrix's vector list.
type Oracle func(v int) bool

// InjectedOracle simulates a chip carrying exactly fault f (an index into
// m's fault list): vector v fires iff the matrix says v detects f. This is
// the oracle of every simulation-driven campaign; hardware-in-the-loop
// diagnosis would substitute real pressure-meter readouts.
func InjectedOracle(m *fault.DetectionMatrix, f int) Oracle {
	return func(v int) bool { return m.Detects(v, f) }
}

// Step records one applied vector for the diagnosis report.
type Step struct {
	// Vector is the applied vector's index in the matrix.
	Vector int `json:"vector"`
	// Detected is the oracle's observation.
	Detected bool `json:"detected"`
	// Before and After are the candidate counts around the update.
	Before int `json:"before"`
	After  int `json:"after"`
	// Split is how many of the Before candidates the vector detects — the
	// d of the selection score min(d, Before-d).
	Split int `json:"split"`
	// Entropy is the binary entropy H(Split/Before) in bits: the expected
	// information gain that made this vector the best pick.
	Entropy float64 `json:"entropy"`
}

// Result is the outcome of one diagnosis run.
type Result struct {
	// Suspects is the minimal candidate set consistent with every
	// observation, ranked lexicographically by (Kind, Valve) — the
	// documented stable order for signature-equivalent faults.
	Suspects []fault.Fault `json:"suspects"`
	// Applied lists the applied vector indices in application order.
	Applied []int `json:"applied"`
	// Steps details each application.
	Steps []Step `json:"steps"`
	// Exhaustive is the number of usable vectors — the cost an exhaustive
	// replay would pay, the baseline adaptive diagnosis is measured
	// against.
	Exhaustive int `json:"exhaustive"`
	// Consistent is false when the observations match no fault in the
	// list (the candidate set emptied): the defect is outside the fault
	// model, or the chip is good but a vector misfired.
	Consistent bool `json:"consistent"`
}

// VectorsApplied returns how many vectors the run applied.
func (r *Result) VectorsApplied() int { return len(r.Applied) }

// Session is one in-progress diagnosis: the candidate bitset plus the
// applied-vector bookkeeping. Sessions are cheap; create one per chip
// under test. Not safe for concurrent use.
type Session struct {
	m       *fault.DetectionMatrix
	oracle  Oracle
	cand    []uint64 // surviving candidate faults
	n       int      // popcount of cand
	applied []bool   // vectors already applied
	steps   []Step
	order   []int
}

// NewSession starts a diagnosis against the matrix with every fault a
// candidate.
func NewSession(m *fault.DetectionMatrix, oracle Oracle) *Session {
	s := &Session{
		m:       m,
		oracle:  oracle,
		cand:    make([]uint64, m.Words()),
		n:       m.NumFaults(),
		applied: make([]bool, m.NumVectors()),
	}
	for i := range s.cand {
		s.cand[i] = ^uint64(0)
	}
	if tail := m.NumFaults() & 63; tail != 0 && m.Words() > 0 {
		s.cand[m.Words()-1] = (1 << uint(tail)) - 1
	}
	return s
}

// splitCount returns how many current candidates vector v detects. The
// hot loop of selection: word-parallel AND + popcount, no allocation.
func (s *Session) splitCount(v int) int {
	row := s.m.Row(v)
	d := 0
	for i, w := range s.cand {
		d += bits.OnesCount64(w & row[i])
	}
	return d
}

// BestSplit scans the unapplied usable vectors for the one with maximal
// min(d, n-d) — the best guaranteed shrink of the candidate set whatever
// the oracle answers. Ties break toward the lowest vector index, making
// the whole adaptive run deterministic. It returns score 0 when no
// unapplied vector splits the candidates (diagnosis has converged).
func (s *Session) BestSplit() (vector, score int) {
	vector = -1
	for v := 0; v < s.m.NumVectors(); v++ {
		if s.applied[v] || !s.m.Usable(v) {
			continue
		}
		d := s.splitCount(v)
		if d > s.n-d {
			d = s.n - d
		}
		if d > score {
			vector, score = v, d
		}
	}
	return vector, score
}

// Apply queries the oracle for vector v and intersects the candidates
// with the consistent half of the split. It records the step and returns
// the new candidate count.
func (s *Session) Apply(v int) int {
	row := s.m.Row(v)
	d := s.splitCount(v)
	before := s.n
	detected := s.oracle(v)
	n := 0
	for i := range s.cand {
		if detected {
			s.cand[i] &= row[i]
		} else {
			s.cand[i] &^= row[i]
		}
		n += bits.OnesCount64(s.cand[i])
	}
	s.n = n
	s.applied[v] = true
	s.order = append(s.order, v)
	s.steps = append(s.steps, Step{
		Vector:   v,
		Detected: detected,
		Before:   before,
		After:    n,
		Split:    d,
		Entropy:  binaryEntropy(d, before),
	})
	return n
}

// binaryEntropy returns H(d/n) in bits (0 for degenerate splits).
func binaryEntropy(d, n int) float64 {
	if d <= 0 || d >= n {
		return 0
	}
	p := float64(d) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Result freezes the session into a report: suspects ranked
// lexicographically by (Kind, Valve), the applied order, and the per-step
// stats.
func (s *Session) Result() *Result {
	suspects := make([]fault.Fault, 0, s.n)
	for f := 0; f < s.m.NumFaults(); f++ {
		if s.cand[f>>6]&(1<<uint(f&63)) != 0 {
			suspects = append(suspects, s.m.Fault(f))
		}
	}
	sort.Slice(suspects, func(i, j int) bool {
		if suspects[i].Kind != suspects[j].Kind {
			return suspects[i].Kind < suspects[j].Kind
		}
		return suspects[i].Valve < suspects[j].Valve
	})
	return &Result{
		Suspects:   suspects,
		Applied:    append([]int(nil), s.order...),
		Steps:      append([]Step(nil), s.steps...),
		Exhaustive: s.m.NumUsable(),
		Consistent: s.n > 0,
	}
}
