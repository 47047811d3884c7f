package core

import (
	"context"
	"fmt"

	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/solve"
)

// DiagnosisSummary aggregates the adaptive fault-diagnosis campaign over
// the final test set: how tightly each modeled fault was localized and
// how many test applications that cost, against the exhaustive-replay
// baseline.
type DiagnosisSummary struct {
	// Faults is the campaign size (every stuck-at-0/1 fault of the
	// augmented chip).
	Faults int
	// Localized counts faults whose true identity ended up among the
	// suspects.
	Localized int
	// ExhaustiveVectors is what an exhaustive replay applies per fault —
	// the baseline the adaptive engine is measured against.
	ExhaustiveVectors int
	// TotalVectors, MaxVectors and MeanVectors summarize the applied
	// vector counts across the campaign.
	TotalVectors int
	MaxVectors   int
	MeanVectors  float64
	// MaxSuspects and MeanSuspects summarize the suspect-set sizes (1.0
	// mean = every fault uniquely identified).
	MaxSuspects  int
	MeanSuspects float64
	// Degraded counts faults whose diagnosis fell past the adaptive tier
	// (vector budget or injected faults).
	Degraded int
	// Entries is the full per-fault detail, in fault order.
	Entries []diagnose.FaultDiagnosis
}

// SummarizeDiagnosis aggregates a diagnosis campaign's per-fault entries
// against exhaustive, the vector count of an exhaustive replay (the
// detection matrix's usable vectors).
func SummarizeDiagnosis(diags []diagnose.FaultDiagnosis, exhaustive int) *DiagnosisSummary {
	sum := &DiagnosisSummary{
		Faults:            len(diags),
		ExhaustiveVectors: exhaustive,
		Entries:           diags,
	}
	totSuspects := 0
	for _, d := range diags {
		if d.Localized() {
			sum.Localized++
		}
		if d.Provenance.Degraded {
			sum.Degraded++
		}
		if d.Result == nil {
			continue
		}
		v := d.Result.VectorsApplied()
		sum.TotalVectors += v
		if v > sum.MaxVectors {
			sum.MaxVectors = v
		}
		ns := len(d.Result.Suspects)
		totSuspects += ns
		if ns > sum.MaxSuspects {
			sum.MaxSuspects = ns
		}
	}
	if len(diags) > 0 {
		sum.MeanVectors = float64(sum.TotalVectors) / float64(len(diags))
		sum.MeanSuspects = float64(totSuspects) / float64(len(diags))
	}
	return sum
}

// Count adds the campaign's diagnose_* counters to st: its size, the
// localized faults, the vectors applied against the exhaustive count,
// the degraded faults and the chain attempts behind all of them.
func (s *DiagnosisSummary) Count(st *flowstage.StageStats) {
	attempts := 0
	for _, d := range s.Entries {
		attempts += len(d.Provenance.Attempts)
	}
	st.Count("diagnose_chain_attempts", int64(attempts))
	st.Count("diagnose_faults", int64(s.Faults))
	st.Count("diagnose_localized", int64(s.Localized))
	st.Count("diagnose_vectors_applied", int64(s.TotalVectors))
	st.Count("diagnose_exhaustive", int64(s.ExhaustiveVectors))
	st.Count("diagnose_degraded", int64(s.Degraded))
}

// SuspectSets returns the campaign's non-empty suspect sets in fault
// order: the input of a reconfiguration campaign.
func (s *DiagnosisSummary) SuspectSets() [][]fault.Fault {
	sets := make([][]fault.Fault, 0, len(s.Entries))
	for _, d := range s.Entries {
		if d.Result != nil && len(d.Result.Suspects) > 0 {
			sets = append(sets, d.Result.Suspects)
		}
	}
	return sets
}

// runDiagnoseStage builds the detection matrix of the final test set
// under the chosen sharing scheme and runs the diagnosis campaign: every
// modeled fault is localized through the adaptive → greedy → replay
// chain. A context that dies before or during the campaign skips the
// stage gracefully (Result.Diagnosis stays nil, the result is marked
// Interrupted) — an interrupted flow still returns the finalize stage's
// complete Result.
func (f *flow) runDiagnoseStage(ctx context.Context, st *flowstage.StageStats) error {
	f.enterStage(st)
	defer f.leaveStage(st)
	obs := f.observer()
	res := f.final.Get()

	skip := func() error {
		st.Count("diagnose_skipped", 1)
		res.Interrupted = true
		return nil
	}
	if ctx.Err() != nil {
		return skip()
	}

	c := res.Aug.Chip
	sim, err := f.newSimulator(c, res.Control)
	if err != nil {
		return err
	}
	vectors := append(append([]fault.Vector{}, res.PathVectors...), res.CutVectors...)
	m, err := fault.NewEngine(sim, f.opts.Workers).DetectionMatrix(ctx, vectors, fault.AllFaults(c))
	if err != nil {
		if ctx.Err() != nil {
			return skip()
		}
		return fmt.Errorf("core: detection matrix failed on %s: %w", c.Name, err)
	}

	planner := &diagnose.Planner{
		Matrix:       m,
		VectorBudget: f.opts.DiagnoseBudget,
		Inject:       f.diagInject,
		OnAttempt: func(att solve.Attempt) {
			obs.ChainAttempt(st.Name, att.Tier, att.Name, string(att.Reason), att.Elapsed)
		},
	}
	diags, err := planner.Campaign(ctx, f.opts.Workers)
	if err != nil {
		if ctx.Err() != nil {
			return skip()
		}
		return fmt.Errorf("core: diagnosis campaign failed on %s: %w", c.Name, err)
	}

	sum := SummarizeDiagnosis(diags, m.NumUsable())
	sum.Count(st)
	res.Diagnosis = sum
	return nil
}
