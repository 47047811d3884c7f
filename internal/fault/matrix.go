// Detection matrix: the precomputed (vector, fault) detection relation the
// adaptive-diagnosis engine selects test vectors from.
//
// A row is one vector's detection signature over the fault list, stored as
// a []uint64 bitset so candidate-set updates and split counting in the
// diagnosis hot loop are word-parallel and allocation-free. Rows are
// independent of each other, so the build fans vectors out over the
// engine's worker pool and the result is bit-identical for any worker
// count.
package fault

import (
	"context"
	"math/bits"

	"repro/internal/par"
)

// DetectionMatrix is the dense (vector, fault) detection relation of a
// campaign. It is immutable after construction and safe for concurrent
// reads.
type DetectionMatrix struct {
	vectors []Vector
	faults  []Fault
	usable  []bool
	words   int        // uint64 words per row
	rows    [][]uint64 // rows[v] bit f set iff vector v detects fault f
}

// NumVectors returns the number of vectors (rows).
func (m *DetectionMatrix) NumVectors() int { return len(m.vectors) }

// NumFaults returns the number of faults (columns).
func (m *DetectionMatrix) NumFaults() int { return len(m.faults) }

// Vector returns vector v.
func (m *DetectionMatrix) Vector(v int) Vector { return m.vectors[v] }

// Fault returns fault f.
func (m *DetectionMatrix) Fault(f int) Fault { return m.faults[f] }

// Usable reports whether vector v behaves as specified on a defect-free
// chip. Unusable vectors have all-zero rows: they detect nothing and the
// diagnosis engine never applies them.
func (m *DetectionMatrix) Usable(v int) bool { return m.usable[v] }

// NumUsable returns the number of usable vectors — the cost of an
// exhaustive replay (the baseline adaptive diagnosis is measured against).
func (m *DetectionMatrix) NumUsable() int {
	n := 0
	for _, u := range m.usable {
		if u {
			n++
		}
	}
	return n
}

// Detects reports whether vector v detects fault f.
func (m *DetectionMatrix) Detects(v, f int) bool {
	return m.rows[v][f>>6]&(1<<uint(f&63)) != 0
}

// Row returns vector v's detection signature as a bitset over faults. The
// returned slice is shared and must not be modified.
func (m *DetectionMatrix) Row(v int) []uint64 { return m.rows[v] }

// Words returns the number of uint64 words per row — the buffer size a
// caller-owned candidate bitset needs.
func (m *DetectionMatrix) Words() int { return m.words }

// RowPopCount returns the number of faults vector v detects.
func (m *DetectionMatrix) RowPopCount(v int) int {
	n := 0
	for _, w := range m.rows[v] {
		n += bits.OnesCount64(w)
	}
	return n
}

// DetectionMatrix fault-simulates every (vector, fault) pair across the
// worker pool and returns the dense detection relation. Vectors that fail
// FaultFreeOK get all-zero rows and Usable(v) == false. Cancelling the
// context stops the build within one vector and returns the context's
// error. The matrix is bit-identical for any worker count.
func (e *Engine) DetectionMatrix(ctx context.Context, vectors []Vector, faults []Fault) (*DetectionMatrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.sim.metrics.noteCampaign(len(faults))
	words := (len(faults) + 63) / 64
	m := &DetectionMatrix{
		vectors: append([]Vector(nil), vectors...),
		faults:  append([]Fault(nil), faults...),
		usable:  make([]bool, len(vectors)),
		words:   words,
		rows:    make([][]uint64, len(vectors)),
	}
	// One backing array for all rows: |vectors| x words.
	backing := make([]uint64, len(vectors)*words)
	for v := range vectors {
		m.rows[v] = backing[v*words : (v+1)*words : (v+1)*words]
	}

	// Phase 1: memoized fault-free evaluation per vector (serial, shared
	// with the simulator's memo cache).
	evals := make([]*vectorEval, len(vectors))
	for v := range vectors {
		evals[v] = e.sim.evalVector(vectors[v])
		m.usable[v] = evals[v].usable
	}

	// Phase 2: per-vector detection rows over the worker pool. Each row
	// depends only on its own vector, so assembly order is fixed by the
	// vector index and the result is worker-count independent.
	fillRow := func(v int) {
		if !evals[v].usable {
			return
		}
		row := m.rows[v]
		var t ruleTally
		for f := range faults {
			if e.sim.detectsEval(evals[v], faults[f], &t) {
				row[f>>6] |= 1 << uint(f&63)
			}
		}
		e.sim.metrics.addRules(t)
	}
	if err := par.For(ctx, e.workers, len(vectors), fillRow); err != nil {
		return nil, err
	}
	return m, nil
}
