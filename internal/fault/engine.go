// Engine: the parallel, memoized fault-simulation campaign runner.
//
// A campaign evaluates |faults| x |vectors| pairs; the fault-free chip
// behaviour depends only on the vector, so the engine looks it up once per
// vector (phase 1, serial, shared with the Simulator's two-level memo) and
// then fans the per-fault detection scans out over a par.For worker pool
// (phase 2). The scans read only the immutable memo records, so the hot
// loop allocates nothing.
//
// Determinism: faults are indexed, each fault's verdict is independent of
// every other fault, and the Coverage is assembled in fault order after
// all workers finish — the result is bit-identical to the serial
// Simulator.EvaluateCoverage for any worker count.
package fault

import (
	"context"

	"repro/internal/par"
)

// Engine runs fault-simulation campaigns over a worker pool, memoizing
// per-vector fault-free state. An Engine is safe for concurrent use; it is
// cheap to construct and may be created per campaign.
type Engine struct {
	sim     *Simulator
	workers int
}

// NewEngine returns a campaign engine over sim with the given worker-pool
// size. workers <= 0 selects one worker per CPU (par.Workers). Results are
// bit-identical for every worker count.
func NewEngine(sim *Simulator, workers int) *Engine {
	return &Engine{sim: sim, workers: par.Workers(workers)}
}

// EvaluateCoverage is EvaluateCoverageCtx without cancellation.
func (e *Engine) EvaluateCoverage(vectors []Vector, faults []Fault) Coverage {
	cov, _ := e.EvaluateCoverageCtx(context.Background(), vectors, faults)
	return cov
}

// EvaluateCoverageCtx fault-simulates every (vector, fault) pair across
// the worker pool and returns the aggregate coverage. Vectors that fail
// FaultFreeOK contribute no detections. Cancelling the context stops the
// campaign within one fault and returns the context's error.
func (e *Engine) EvaluateCoverageCtx(ctx context.Context, vectors []Vector, faults []Fault) (Coverage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Coverage{}, err
	}
	e.sim.metrics.noteCampaign(len(faults))
	// Phase 1: fault-free valve states and meter readings, once per
	// vector. Hits the simulator's memo cache, so repeated campaigns over
	// the same vector set skip this entirely.
	usable := make([]*vectorEval, 0, len(vectors))
	for _, v := range vectors {
		if ev := e.sim.evalVector(v); ev.usable {
			usable = append(usable, ev)
		}
	}

	// Phase 2: per-fault detection scans, one fault at a time per worker.
	detected := make([]bool, len(faults))
	err := par.For(ctx, e.workers, len(faults), func(i int) { detected[i] = detectAny(e.sim, usable, faults[i]) })
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

// detectAny reports whether any usable vector detects f, scanning vectors
// in campaign order (first detection wins, exactly like the serial path).
func detectAny(s *Simulator, usable []*vectorEval, f Fault) bool {
	var t ruleTally
	det := false
	for _, ev := range usable {
		if detectsEval(s.chip, ev, f, &t) {
			det = true
			break
		}
	}
	s.metrics.addRules(t)
	return det
}
