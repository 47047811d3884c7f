// Incremental sharing-scheme revalidation.
//
// The dominant cost of one inner-PSO fitness evaluation is proving that
// the base test set still detects every fault under a candidate sharing
// scheme (testgen.RepairVectors re-simulates vectors against faults). But
// a sharing scheme only perturbs a vector's behaviour through control-line
// expansion: applying vector V drives exactly the lines of V's valves, so
// the expanded valve states — and therefore every meter reading and every
// detection verdict — differ from the independent-control evaluation only
// when some valve of V is paired with a valve outside V. A vector with no
// such pair is "clean": its verdicts under the sharing are bit-identical
// to independent control.
//
// The screen exploits this in two tiers. At build time it records one
// witness per fault — the first vector that detects it under independent
// control (a single early-exit scan, about the cost of one coverage
// evaluation). A candidate scheme that leaves every witness clean
// provably preserves full coverage with zero fault simulations — the
// structural fast path. When some witnesses are dirty, the recheck tier
// re-simulates exactly those witness/fault pairs under the candidate's
// shared control: if every fault's witness still detects it, coverage is
// again proven and the repair pass skipped, at the cost of one targeted
// simulation per dirty-witness fault instead of a full repair-and-
// coverage campaign. Any failure falls through to the unchanged slow
// path. Fitness values are therefore bit-identical with and without the
// screen — a passing check implies the slow path would have concluded
// full coverage too; the screen only decides whether the slow path can
// be skipped, never what a fitness is.
package core

import (
	"repro/internal/chip"
	"repro/internal/fault"
)

// sharingScreen holds one configuration's incremental revalidation state:
// per-fault witness vectors under independent control and the vector
// membership tables the clean/dirty classification needs.
type sharingScreen struct {
	chip    *chip.Chip
	nOrig   int
	vectors []fault.Vector // paths then cuts, the RepairVectors order
	faults  []fault.Fault  // fault.AllFaults order, indexed by witness
	// witness[fi] is the index of a vector that detects fault fi under
	// independent control, or -1 when none does (the configuration's
	// intrinsic coverage gap; such configurations never take the fast
	// path).
	witness []int
	inVec   [][]bool // inVec[v][valve]: valve appears in vectors[v].Valves
}

// screenFor returns the configuration's revalidation screen, building it
// on first use. It returns nil when the build failed, which degrades every
// check to the slow path.
func (f *flow) screenFor(ev *augEval) *sharingScreen {
	ev.screenOnce.Do(func() {
		ev.screen = f.newSharingScreen(ev)
	})
	return ev.screen
}

func (f *flow) newSharingScreen(ev *augEval) *sharingScreen {
	c := ev.aug.Chip
	sim, err := f.newSimulator(c, chip.IndependentControl(c))
	if err != nil {
		return nil
	}
	vectors := append(append([]fault.Vector{}, ev.paths...), ev.cuts...)
	if len(vectors) == 0 {
		return nil
	}
	faults := fault.AllFaults(c)
	s := &sharingScreen{
		chip:    c,
		nOrig:   c.NumOriginalValves(),
		vectors: vectors,
		faults:  faults,
		witness: make([]int, len(faults)),
		inVec:   make([][]bool, len(vectors)),
	}
	usable := make([]bool, len(vectors))
	for v, vec := range vectors {
		usable[v] = sim.FaultFreeOK(vec)
		member := make([]bool, c.NumValves())
		for _, val := range vec.Valves {
			member[val] = true
		}
		s.inVec[v] = member
	}
	for fi, ft := range faults {
		s.witness[fi] = -1
		for v, vec := range vectors {
			if usable[v] && sim.Detects(vec, ft) {
				s.witness[fi] = v
				break
			}
		}
	}
	return s
}

// fullCoverage reports whether the base vectors provably keep detecting
// every fault under the sharing scheme. It first classifies each vector
// clean/dirty from the partner assignment alone; every witness clean
// proves coverage with zero simulations (reval_fastpath). Otherwise it
// re-simulates only the dirty witness/fault pairs under the candidate's
// shared control (reval_recheck_pass) — the incremental recheck of
// exactly the vectors the partner change touched. A false return means
// "not proven", not "broken" — the caller must fall back to the full
// repair pass. Safe for concurrent callers (the inner swarm evaluates
// several schemes of one configuration at once): all scratch state is
// per-call.
func (s *sharingScreen) fullCoverage(f *flow, ctrl *chip.Control, partners []int) bool {
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
	dirty := make([]bool, len(s.vectors))
	var clean, dirtyCount int64
	for v := range s.vectors {
		// V is dirty iff some valve of V is paired with a valve outside V
		// — exactly the condition under which V's control-line expansion
		// (and hence any verdict about V) can differ from independent
		// control.
		member := s.inVec[v]
		d := false
		for _, val := range s.vectors[v].Valves {
			partner := -1
			if val >= s.nOrig {
				partner = partners[val-s.nOrig]
			} else {
				partner = inv[val]
			}
			if partner >= 0 && !member[partner] {
				d = true
				break
			}
		}
		dirty[v] = d
		if d {
			dirtyCount++
		} else {
			clean++
		}
	}
	f.countStage("reval_clean_vectors", clean)
	f.countStage("reval_dirty_vectors", dirtyCount)
	recheck := false
	for _, w := range s.witness {
		if w < 0 {
			// Intrinsic coverage gap: the screen cannot reason about "no
			// worse than baseline", only about full coverage.
			return false
		}
		if dirty[w] {
			recheck = true
		}
	}
	if !recheck {
		f.countStage("reval_fastpath", 1)
		return true
	}
	// Recheck tier: simulate only the dirty witnesses under the actual
	// shared control. A witness that is masked (not fault-free usable) or
	// no longer detects its fault does not disprove coverage — another
	// vector or a repaired one may still detect it — so any failure just
	// defers to the slow path.
	sim, err := f.newSimulator(s.chip, ctrl)
	if err != nil {
		return false
	}
	usable := make(map[int]bool, len(dirty))
	sims := int64(0)
	for fi, w := range s.witness {
		if !dirty[w] {
			continue
		}
		ok, seen := usable[w]
		if !seen {
			ok = sim.FaultFreeOK(s.vectors[w])
			usable[w] = ok
		}
		if !ok {
			return false
		}
		sims++
		if !sim.Detects(s.vectors[w], s.faults[fi]) {
			return false
		}
	}
	f.countStage("reval_recheck_sims", sims)
	f.countStage("reval_recheck_pass", 1)
	return true
}
