// Engine: the fault-simulation campaign runner.
//
// A campaign decides which of |faults| faults some usable vector detects.
// The fault-free chip behaviour depends only on the vector, so the engine
// derives it once per vector from the simulator's state memo and then asks
// only the faults the vector can reveal. A usable path vector reads
// pressure at every meter, so only a stuck-at-0 at a valve it opens can
// change a reading; a usable cut vector reads none, so only a stuck-at-1
// or leakage fault at a valve it closes can. Under a control assignment
// the valves a vector opens (path) or closes (cut) are exactly those on
// the control lines its valves drive, partners included. Every other
// (vector, fault) pair is one detectsEval settles as undetected, either
// because the fault leaves the valve's applied state unchanged or by the
// saturation screen, so the walk skips it. It visits the usable vectors in
// campaign order and stops asking a fault once it is detected, so each
// fault gets the reach and bridge checks a fault-major scan gives it.
//
// Determinism: the campaign is serial and Coverage is assembled in fault
// order, so the result is bit-identical to the memo-free
// EvaluateCoverageBaseline, including Undetected order.
package fault

import (
	"context"

	"repro/internal/par"
)

// Engine runs fault-simulation campaigns and detection matrices on one
// simulator, whose state memo they share. Campaigns run serially; the
// worker pool sizes the detection-matrix build. An Engine is safe for
// concurrent use; it is cheap to construct and may be created per
// campaign.
type Engine struct {
	sim     *Simulator
	workers int
}

// NewEngine returns an engine over sim whose detection-matrix builds use
// the given worker-pool size. workers <= 0 selects one worker per CPU
// (par.Workers). Results are bit-identical for every worker count.
func NewEngine(sim *Simulator, workers int) *Engine {
	return &Engine{sim: sim, workers: par.Workers(workers)}
}

// EvaluateCoverage is EvaluateCoverageCtx without cancellation.
func (e *Engine) EvaluateCoverage(vectors []Vector, faults []Fault) Coverage {
	cov, _ := e.EvaluateCoverageCtx(context.Background(), vectors, faults)
	return cov
}

// EvaluateCoverageCtx fault-simulates the campaign and returns the
// aggregate coverage. Vectors that fail FaultFreeOK contribute no
// detections. The context is checked once per vector; cancelling it
// returns the context's error.
func (e *Engine) EvaluateCoverageCtx(ctx context.Context, vectors []Vector, faults []Fault) (Coverage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Coverage{}, err
	}
	s := e.sim
	s.metrics.noteCampaign(len(faults))
	nLines := s.ctrl.NumLines()
	// The two tables of the walk: the positions of each valve's faults
	// in the list, and the valves of each control line.
	faultsAt := newIndex(s.chip.NumValves(), len(faults), func(i int) int { return faults[i].Valve })
	lineValves := newIndex(nLines, s.chip.NumValves(), s.ctrl.LineOf)
	visited := make([]int32, nLines) // visited[l] == i+1: vector i visited line l
	detected := make([]bool, len(faults))
	var ev vectorEval
	var t ruleTally
	var err error
	for i, v := range vectors {
		if err = ctx.Err(); err != nil {
			break
		}
		// One memoized evaluation per vector.
		s.eval(v, &ev)
		if !ev.usable {
			continue
		}
		cut := v.Kind != PathVector
		for _, driven := range v.Valves {
			l := s.ctrl.LineOf(driven)
			if visited[l] == int32(i+1) {
				continue
			}
			visited[l] = int32(i + 1)
			for _, valve := range lineValves.of(l) {
				for _, p := range faultsAt.of(int(valve)) {
					if !detected[p] && opens(faults[p].Kind) == cut && detectsEval(s.chip, &ev, faults[p], &t) {
						detected[p] = true
					}
				}
			}
		}
	}
	s.metrics.addRules(t)
	if err != nil {
		return Coverage{}, err
	}

	cov := Coverage{Total: len(faults)}
	for i, f := range faults {
		if detected[i] {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, f)
		}
	}
	return cov, nil
}

// opens reports whether fault kind k forces its valve open: the kinds a
// cut vector can reveal. A path vector can reveal only stuck-at-0.
func opens(k Kind) bool { return k == StuckAt1 || k == Leakage }

// index maps keys 0..n-1 to the positions that carry them: the
// positions of key k are pos[start[k]:start[k+1]], ascending.
type index struct{ start, pos []int32 }

// newIndex indexes positions 0..size-1 by key(i), which must lie in
// [0, n).
func newIndex(n, size int, key func(int) int) index {
	ix := index{start: make([]int32, n+1), pos: make([]int32, size)}
	for i := 0; i < size; i++ {
		ix.start[key(i)+1]++
	}
	for k := 0; k < n; k++ {
		ix.start[k+1] += ix.start[k]
	}
	next := append([]int32(nil), ix.start[:n]...)
	for i := 0; i < size; i++ {
		k := key(i)
		ix.pos[next[k]] = int32(i)
		next[k]++
	}
	return ix
}

// of returns the positions of key k.
func (ix index) of(k int) []int32 { return ix.pos[ix.start[k]:ix.start[k+1]] }
