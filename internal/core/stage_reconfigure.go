package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/solve"
)

// ReconfigSummary aggregates the test-around-fault reconfiguration
// campaign: for every diagnosed suspect set (deduplicated by the valve
// bans it implies), whether the assay still completes with the suspects
// banned, at what execution-time penalty, and through which tier of the
// reconf-strict → reconf-reroute → reconf-relaxed chain.
type ReconfigSummary struct {
	// SuspectSets is the number of diagnosed suspect sets fed in;
	// Groups is the number of distinct ban groups after deduplication.
	SuspectSets int
	Groups      int
	// Feasible counts groups with a validated fault-avoiding schedule;
	// Infeasible counts typed infeasibilities (errors.Is ErrInfeasible);
	// Failed counts anything else (only possible under injected faults
	// at every tier).
	Feasible   int
	Infeasible int
	Failed     int
	// Relaxed counts feasible groups that needed the last-resort tier
	// (stuck-open seal requirement waived).
	Relaxed int
	// Degraded counts feasible groups produced below the strict tier.
	Degraded int
	// Baseline is the fault-free makespan the penalties are relative to.
	Baseline int
	// MaxPenalty and MeanPenalty summarize the execution-time penalties
	// over the feasible groups.
	MaxPenalty  int
	MeanPenalty float64
	// Entries is the full per-group detail, in first-seen order.
	Entries []diagnose.SetReconfig
}

// SummarizeReconfig aggregates a reconfiguration campaign: the suspect
// sets fed in and the ban groups the campaign returned for them.
func SummarizeReconfig(sets [][]fault.Fault, groups []diagnose.SetReconfig) *ReconfigSummary {
	sum := &ReconfigSummary{
		SuspectSets: len(sets),
		Groups:      len(groups),
		Entries:     groups,
	}
	totPenalty := 0
	for _, g := range groups {
		switch {
		case g.Err == nil && g.Reconfig != nil:
			sum.Feasible++
			if g.Reconfig.Relaxed {
				sum.Relaxed++
			}
			if g.Provenance.Degraded {
				sum.Degraded++
			}
			sum.Baseline = g.Reconfig.Baseline
			totPenalty += g.Reconfig.Penalty
			if g.Reconfig.Penalty > sum.MaxPenalty {
				sum.MaxPenalty = g.Reconfig.Penalty
			}
		case errors.Is(g.Err, diagnose.ErrInfeasible):
			sum.Infeasible++
		default:
			sum.Failed++
		}
	}
	if sum.Feasible > 0 {
		sum.MeanPenalty = float64(totPenalty) / float64(sum.Feasible)
	}
	return sum
}

// Count adds the campaign's reconf_* counters to st: the suspect sets and
// ban groups, each outcome's group count, the worst penalty and the
// chain attempts behind all of them.
func (s *ReconfigSummary) Count(st *flowstage.StageStats) {
	attempts := 0
	for _, g := range s.Entries {
		attempts += len(g.Provenance.Attempts)
	}
	st.Count("reconf_chain_attempts", int64(attempts))
	st.Count("reconf_sets", int64(s.SuspectSets))
	st.Count("reconf_groups", int64(s.Groups))
	st.Count("reconf_feasible", int64(s.Feasible))
	st.Count("reconf_infeasible", int64(s.Infeasible))
	st.Count("reconf_failed", int64(s.Failed))
	st.Count("reconf_relaxed", int64(s.Relaxed))
	st.Count("reconf_degraded", int64(s.Degraded))
	st.Count("reconf_max_penalty", int64(s.MaxPenalty))
}

// runReconfigureStage reschedules the assay around every diagnosed
// suspect set through the reconfiguration chain. It consumes
// Result.Diagnosis, so it skips gracefully (Result.Reconfiguration stays
// nil) when diagnosis was itself skipped or when the context has died.
func (f *flow) runReconfigureStage(ctx context.Context, st *flowstage.StageStats) error {
	f.enterStage(st)
	defer f.leaveStage(st)
	obs := f.observer()
	res := f.final.Get()

	skip := func() error {
		st.Count("reconf_skipped", 1)
		res.Interrupted = true
		return nil
	}
	if ctx.Err() != nil || res.Diagnosis == nil {
		return skip()
	}

	sets := res.Diagnosis.SuspectSets()
	r := &diagnose.Reconfigurer{
		Chip:    res.Aug.Chip,
		Ctrl:    res.Control,
		Assay:   f.graph,
		Params:  f.opts.Sched,
		Inject:  f.reconfInject,
		Metrics: f.schedMetrics,
		OnAttempt: func(att solve.Attempt) {
			obs.ChainAttempt(st.Name, att.Tier, att.Name, string(att.Reason), att.Elapsed)
		},
	}
	groups, err := r.Campaign(ctx, sets, f.opts.Workers)
	if err != nil {
		if ctx.Err() != nil {
			return skip()
		}
		return fmt.Errorf("core: reconfiguration campaign failed on %s: %w", res.Aug.Chip.Name, err)
	}

	sum := SummarizeReconfig(sets, groups)
	sum.Count(st)
	res.Reconfiguration = sum
	return nil
}
