// Diagnosis campaigns: run the degradation chain once per modeled fault
// (simulated via InjectedOracle) across a par.For worker pool. Sessions are
// independent per fault and results are assembled in fault order, so a
// campaign is bit-identical for any worker count — the same determinism
// contract as fault.Engine.
package diagnose

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/solve"
)

// FaultDiagnosis is one campaign entry: the chain outcome of diagnosing a
// chip that carries exactly Fault.
type FaultDiagnosis struct {
	// Fault is the injected (true) fault, index FaultIndex in the matrix.
	Fault      fault.Fault
	FaultIndex int
	// Result is the diagnosis (nil only when the chain exhausted, which
	// requires injected faults at every tier — replay cannot fail on its
	// own).
	Result *Result
	// Provenance records the tier attempts, like every solve chain.
	Provenance solve.Provenance
	// Err is the chain error, nil on success.
	Err error
}

// Localized reports whether diagnosis succeeded with the true fault among
// the suspects.
func (d *FaultDiagnosis) Localized() bool {
	if d.Err != nil || d.Result == nil {
		return false
	}
	for _, s := range d.Result.Suspects {
		if s == d.Fault {
			return true
		}
	}
	return false
}

// Campaign diagnoses every fault in the matrix's fault list over a worker
// pool (workers <= 0 selects GOMAXPROCS). Each fault gets a fresh session
// and oracle, so entries are independent and the output is bit-identical
// for any worker count. The planner's OnAttempt hook fires serially, in
// fault order, after all workers finish. Cancelling the context stops the
// campaign within one fault and returns the context's error.
func (p *Planner) Campaign(ctx context.Context, workers int) ([]FaultDiagnosis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, inj := range p.Inject {
		switch inj.Tier {
		case TierAdaptive, TierGreedy, TierReplay:
		default:
			return nil, fmt.Errorf("%w: %q (diagnosis chain has %s, %s, %s)",
				solve.ErrUnknownInjectionTier, inj.Tier, TierAdaptive, TierGreedy, TierReplay)
		}
	}
	m := p.Matrix
	out := make([]FaultDiagnosis, m.NumFaults())
	// Workers run hook-free planner copies; attempts are replayed to the
	// caller's hook serially below, keeping the Observer single-threaded.
	worker := *p
	worker.OnAttempt = nil
	run := func(f int) {
		outcome, err := worker.Run(ctx, InjectedOracle(m, f))
		out[f] = FaultDiagnosis{
			Fault:      m.Fault(f),
			FaultIndex: f,
			Result:     outcome.Value,
			Provenance: outcome.Provenance,
			Err:        err,
		}
	}

	if err := par.For(ctx, par.Workers(workers), m.NumFaults(), run); err != nil {
		return nil, err
	}

	if p.OnAttempt != nil {
		for i := range out {
			for _, att := range out[i].Provenance.Attempts {
				p.OnAttempt(att)
			}
		}
	}
	return out, nil
}

// EquivalenceClass returns the faults whose detection signature over the
// usable vectors is identical to fault f's — the theoretical limit of any
// diagnosis from this vector set. The class always contains f itself and
// is sorted by fault index (which AllFaults orders by (Kind, Valve)).
func EquivalenceClass(m *fault.DetectionMatrix, f int) []fault.Fault {
	var class []fault.Fault
	for g := 0; g < m.NumFaults(); g++ {
		if sameSignature(m, f, g) {
			class = append(class, m.Fault(g))
		}
	}
	return class
}

// sameSignature reports whether faults f and g are detected by exactly
// the same usable vectors.
func sameSignature(m *fault.DetectionMatrix, f, g int) bool {
	for v := 0; v < m.NumVectors(); v++ {
		if !m.Usable(v) {
			continue
		}
		if m.Detects(v, f) != m.Detects(v, g) {
			return false
		}
	}
	return true
}
