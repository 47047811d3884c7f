// Incremental sharing-scheme validation.
//
// Every inner-PSO fitness evaluation runs the paper's test validation
// under valve sharing (Section 4.1): the faults the base test set misses
// under the candidate scheme are repaired with sharing-immune replacement
// vectors, and the scheme is penalized by the exact number of faults that
// stay undetected. Coverage is a per-fault union over usable vectors, and
// a sharing scheme only perturbs a vector through control-line expansion:
// applying vector V drives exactly the lines of V's valves, so the
// expanded valve states — and therefore usability, every meter reading
// and every detection verdict — differ from independent control only when
// some valve of V is paired with a valve outside V. A vector with no such
// pair is "clean": its detection row under the scheme is its row under
// independent control. The others are "dirty".
//
// So each configuration builds one fault.DetectionMatrix of its base
// vectors under independent control, and each scheme is checked in three
// exact steps on one pooled fault.Probe reset to the scheme's control:
//
//  1. OR the clean rows into a fault bitset. When it covers every fault,
//     the scheme keeps full coverage with zero simulations
//     (reval_fastpath).
//  2. Otherwise the probe analyses each dirty vector under the scheme and
//     ORs its detections of the faults still open into that bitset
//     (Probe.Cover; reval_recheck_sims counts the vectors). The faults
//     left are exactly the Undetected list of a full campaign of the base
//     vectors, in the same fault order. An empty list means full coverage
//     without repairs (reval_recheck_pass).
//  3. Otherwise testgen.RepairUndetected repairs those faults in that
//     order on the same probe and counts what the repairs leave
//     (reval_slowpath), with no recount campaign.
//
// The repairs see the same faults in the same order as a full campaign
// would give them, so every replacement vector and every fitness value is
// the one the full campaign-repair-recount pipeline produces. The probe
// keeps no memo: within a scheme each dirty vector is analysed once, and a
// memo across schemes keyed by expanded valve state did not pay for its
// memory (DESIGN §14). So a check builds no fault.Simulator, no memo map
// and no vector key, and a warmed probe allocates nothing.
package core

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/testgen"
)

// sharingCheck is one configuration's incremental validation state: the
// detection matrix of its base vectors (paths, then cuts) over
// fault.AllFaults under independent control, and the vector membership
// table the clean/dirty classification reads. It is immutable once built,
// so the inner swarm's concurrent evaluations share it.
type sharingCheck struct {
	nOrig  int
	matrix *fault.DetectionMatrix
	inVec  [][]bool // inVec[v][valve]: valve is one of vector v's valves
}

// newSharingCheck builds the check of a configuration on chip c whose base
// vectors are vectors. The matrix is a pure function of the configuration
// (it is cached with it), so the build ignores the flow's context, and it
// runs on one worker: the swarm that evaluates configurations already
// fills the cores.
func (f *flow) newSharingCheck(c *chip.Chip, vectors []fault.Vector) *sharingCheck {
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	sim.SetMetrics(f.metrics)
	m, _ := fault.NewEngine(sim, 1).DetectionMatrix(context.Background(), vectors, fault.AllFaults(c))
	s := &sharingCheck{nOrig: c.NumOriginalValves(), matrix: m, inVec: make([][]bool, len(vectors))}
	member := make([]bool, len(vectors)*c.NumValves())
	for v, vec := range vectors {
		s.inVec[v] = member[v*c.NumValves() : (v+1)*c.NumValves()]
		for _, val := range vec.Valves {
			s.inVec[v][val] = true
		}
	}
	return s
}

// gap counts the faults whose matrix column is all zero: the faults no base
// vector detects even under independent control, the configuration's
// intrinsic coverage gap.
func (s *sharingCheck) gap() int {
	covered := make([]uint64, s.matrix.Words())
	for v := 0; v < s.matrix.NumVectors(); v++ {
		orInto(covered, s.matrix.Row(v))
	}
	return s.matrix.NumFaults() - popCount(covered)
}

// undetected returns the faults the base vectors miss under the sharing
// scheme partners — exactly the Undetected list, in fault order, of a
// coverage campaign of every base vector under the scheme. probe must be
// reset to the configuration's chip under chip.SharedControl(partners).
// Only the dirty vectors are analysed, one at a time, each ORing its
// detections of the faults still open into the clean rows' bitset. It
// returns ctx's error when ctx (nil for none) is cancelled between two
// dirty vectors.
func (s *sharingCheck) undetected(ctx context.Context, f *flow, probe *fault.Probe, partners []int) ([]fault.Fault, error) {
	m := s.matrix
	// Invert the assignment: original valve -> its DFT partner (or -1).
	inv := make([]int, s.nOrig)
	for i := range inv {
		inv[i] = -1
	}
	for i, p := range partners {
		if p >= 0 {
			inv[p] = s.nOrig + i
		}
	}
	covered := make([]uint64, m.Words())
	var dirty []int
	for v := 0; v < m.NumVectors(); v++ {
		if s.dirty(v, partners, inv) {
			dirty = append(dirty, v)
			continue
		}
		orInto(covered, m.Row(v))
	}
	f.countStage("reval_clean_vectors", int64(m.NumVectors()-len(dirty)))
	f.countStage("reval_dirty_vectors", int64(len(dirty)))
	if popCount(covered) == m.NumFaults() {
		f.countStage("reval_fastpath", 1)
		return nil, nil
	}
	for _, v := range dirty {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		probe.Cover(m.Vector(v), m.Faults(), covered)
	}
	var rest []fault.Fault
	for fi, flt := range m.Faults() {
		if covered[fi>>6]&(1<<uint(fi&63)) == 0 {
			rest = append(rest, flt)
		}
	}
	if len(dirty) > 0 {
		f.countStage("reval_recheck_sims", int64(len(dirty)))
		if len(rest) == 0 {
			f.countStage("reval_recheck_pass", 1)
		}
	}
	return rest, nil
}

// dirty reports whether some valve of vector v is paired with a valve
// outside v — exactly the condition under which v's control-line
// expansion, and hence any verdict about v, can differ from independent
// control. inv maps each original valve to its DFT partner (or -1).
func (s *sharingCheck) dirty(v int, partners, inv []int) bool {
	member := s.inVec[v]
	for _, val := range s.matrix.Vector(v).Valves {
		partner := -1
		if val >= s.nOrig {
			partner = partners[val-s.nOrig]
		} else {
			partner = inv[val]
		}
		if partner >= 0 && !member[partner] {
			return true
		}
	}
	return false
}

// probePool shares fault probes across scheme checks: each check resets
// one to its scheme's control, so a warmed probe's buffers serve every
// later scheme.
var probePool = sync.Pool{New: func() any { return new(fault.Probe) }}

// validateSharing runs the test validation of configuration ev under the
// sharing scheme partners, whose control assignment is ctrl: the base
// vectors' misses are repaired, and it returns the replacement paths and
// cuts and the number of faults still undetected. err is non-nil only when
// ctx is cancelled mid-check.
func (f *flow) validateSharing(ctx context.Context, ev *augEval, ctrl *chip.Control, partners []int) (paths, cuts []fault.Vector, remaining int, err error) {
	c := ev.aug.Chip
	probe := probePool.Get().(*fault.Probe)
	defer probePool.Put(probe)
	if err := probe.Reset(c, ctrl, f.metrics); err != nil {
		return nil, nil, 0, err
	}
	undetected, err := ev.check.undetected(ctx, f, probe, partners)
	if err != nil || len(undetected) == 0 {
		return nil, nil, 0, err
	}
	f.countStage("reval_slowpath", 1)
	paths, cuts, remaining = testgen.RepairUndetected(c, ctrl, probe, ev.aug.Source, ev.aug.Meter, undetected)
	return paths, cuts, remaining, nil
}

func orInto(dst, row []uint64) {
	for w, x := range row {
		dst[w] |= x
	}
}

func popCount(set []uint64) int {
	n := 0
	for _, x := range set {
		n += bits.OnesCount64(x)
	}
	return n
}
