// Test-around-fault reconfiguration: once diagnosis has located a fault
// (or narrowed it to a suspect set), the bioassay is rescheduled with the
// implicated valves banned — stuck-closed segments excluded from routing
// and storage, stuck-open segments excluded from storage and sealing —
// through a solve.Runner degradation chain:
//
//	reconf-strict:  the production scheduling parameters, bans enforced;
//	reconf-reroute: 4x the reroute attempts per transport, for chips
//	                where the fault blocks the preferred paths;
//	reconf-relaxed: additionally accepts snapshots that need a stuck-open
//	                valve sealed (contamination risk, last resort).
//
// Every tier's schedule is re-checked with sched.ValidateScheduleAvoids
// before it is accepted. A chain that exhausts returns a typed
// infeasibility (errors.Is(err, ErrInfeasible)) — never a panic and never
// a silent zero value.
package diagnose

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/sched"
	"repro/internal/solve"
)

// ErrInfeasible reports that no tier found a fault-avoiding schedule: the
// assay cannot complete on the faulty chip. Test with errors.Is.
var ErrInfeasible = errors.New("diagnose: no fault-avoiding schedule exists")

// Tier names of the reconfiguration chain, usable in -inject specs.
const (
	TierStrict  = solve.ReconfigTierPrefix + "strict"
	TierReroute = solve.ReconfigTierPrefix + "reroute"
	TierRelaxed = solve.ReconfigTierPrefix + "relaxed"
)

// Reconfiguration is a successful test-around-fault rescheduling.
type Reconfiguration struct {
	// Faults lists the banned faults (the diagnosis suspect set).
	Faults []fault.Fault `json:"faults"`
	// BanClosed and BanOpen are the valve bans derived from Faults.
	BanClosed []int `json:"ban_closed,omitempty"`
	BanOpen   []int `json:"ban_open,omitempty"`
	// ExecutionTime is the makespan of the fault-avoiding schedule;
	// Baseline is the fault-free makespan; Penalty their difference.
	ExecutionTime int `json:"execution_time"`
	Baseline      int `json:"baseline"`
	Penalty       int `json:"penalty"`
	// PenaltyRatio is Penalty/Baseline.
	PenaltyRatio float64 `json:"penalty_ratio"`
	// Relaxed marks a schedule from the last-resort tier that accepts
	// unsealable stuck-open valves next to active transports.
	Relaxed bool `json:"relaxed"`
}

// Reconfigurer reschedules one (chip, control, assay) combination around
// fault sets. Safe for concurrent Run calls; the fault-free baseline is
// computed once.
type Reconfigurer struct {
	Chip  *chip.Chip
	Ctrl  *chip.Control
	Assay *assay.Graph
	// Params seeds every tier's scheduling parameters (zero value = sched
	// defaults).
	Params sched.Params
	// Inject lists deterministic tier faults, matched by the Tier* names.
	Inject []solve.Injection
	// OnAttempt, when non-nil, observes every tier attempt (Run fires it
	// inline; Campaign replays serially after the parallel phase).
	OnAttempt func(solve.Attempt)
	// Metrics, when non-nil, is attached to every warm scheduler engine the
	// reconfigurer builds, so callers can attribute engine traffic.
	Metrics *sched.Metrics

	baselineOnce sync.Once
	baselineTime int
	baselineErr  error

	// engines memoizes one warm sched.Engine per distinct ban set, keyed
	// by banKey. All three tiers of a Run share an engine (the tier knobs
	// — MaxReroutes, RelaxStuckOpenSeal — are per-call parameters, not
	// engine state), and Campaign's banKey-deduplicated groups reuse
	// entries across the whole campaign. The pointer is shared with
	// Campaign's worker copy.
	engOnce sync.Once
	engines *artifact.Cache[builtEngine]
}

// builtEngine is a once-built scheduler engine or its build error.
type builtEngine struct {
	eng *sched.Engine
	err error
}

// engineMemo returns the reconfigurer's engine memo, creating it on first
// use (safe under concurrent Run calls).
func (r *Reconfigurer) engineMemo() *artifact.Cache[builtEngine] {
	r.engOnce.Do(func() { r.engines = artifact.NewCache[builtEngine]() })
	return r.engines
}

// engineFor returns the warm engine for the ban set named in p, building it
// at most once per distinct set.
func (r *Reconfigurer) engineFor(p sched.Params) (*sched.Engine, error) {
	b, _ := r.engineMemo().Do(banKey(p.BanClosed, p.BanOpen), func() builtEngine {
		eng, err := sched.NewEngine(r.Chip, r.Assay, p)
		if err == nil && r.Metrics != nil {
			eng.SetMetrics(r.Metrics)
		}
		return builtEngine{eng, err}
	})
	return b.eng, b.err
}

// Bans maps a fault set to scheduler bans: stuck-at-0 (can't open /
// blocked channel) valves are banned closed; stuck-at-1 and leakage
// (can't close) valves are banned open. Both lists are sorted and
// deduplicated.
func Bans(faults []fault.Fault) (banClosed, banOpen []int) {
	seenC, seenO := map[int]bool{}, map[int]bool{}
	for _, f := range faults {
		switch f.Kind {
		case fault.StuckAt0:
			if !seenC[f.Valve] {
				seenC[f.Valve] = true
				banClosed = append(banClosed, f.Valve)
			}
		case fault.StuckAt1, fault.Leakage:
			if !seenO[f.Valve] {
				seenO[f.Valve] = true
				banOpen = append(banOpen, f.Valve)
			}
		}
	}
	sort.Ints(banClosed)
	sort.Ints(banOpen)
	return banClosed, banOpen
}

// Baseline returns the fault-free makespan under the reconfigurer's
// parameters (computed once).
func (r *Reconfigurer) Baseline(ctx context.Context) (int, error) {
	r.baselineOnce.Do(func() {
		eng, err := r.engineFor(r.Params)
		var sch *sched.Schedule
		if err == nil {
			sch, err = eng.RunCtx(ctx, r.Ctrl, r.Params)
		}
		if err != nil {
			r.baselineErr = fmt.Errorf("diagnose: fault-free baseline unschedulable: %w", err)
			return
		}
		r.baselineTime = sch.ExecutionTime
	})
	return r.baselineTime, r.baselineErr
}

// tierParams returns the scheduling parameters of the named tier with the
// bans applied.
func (r *Reconfigurer) tierParams(name string, banClosed, banOpen []int) sched.Params {
	p := r.Params
	p.BanClosed = banClosed
	p.BanOpen = banOpen
	switch name {
	case TierReroute:
		base := p.MaxReroutes
		if base <= 0 {
			base = 6 // sched's default
		}
		p.MaxReroutes = base * 4
	case TierRelaxed:
		base := p.MaxReroutes
		if base <= 0 {
			base = 6
		}
		p.MaxReroutes = base * 4
		p.RelaxStuckOpenSeal = true
	}
	return p
}

// Run reschedules the assay around the given fault set through the
// degradation chain. On total failure the returned error satisfies
// errors.Is(err, ErrInfeasible) when the chain proved infeasibility (as
// opposed to being cancelled).
func (r *Reconfigurer) Run(ctx context.Context, faults []fault.Fault) (solve.Outcome[*Reconfiguration], error) {
	banClosed, banOpen := Bans(faults)
	baseline, err := r.Baseline(ctx)
	if err != nil {
		return solve.Outcome[*Reconfiguration]{}, err
	}
	tier := func(name string) solve.TierSpec[*Reconfiguration] {
		var pos int
		switch name {
		case TierReroute:
			pos = 1
		case TierRelaxed:
			pos = 2
		}
		return solve.TierSpec[*Reconfiguration]{
			Tier: pos,
			Name: name,
			Run: func(ctx context.Context) (*Reconfiguration, error) {
				p := r.tierParams(name, banClosed, banOpen)
				eng, err := r.engineFor(p)
				var sch *sched.Schedule
				if err == nil {
					sch, err = eng.RunCtx(ctx, r.Ctrl, p)
				}
				if err != nil {
					if ctx.Err() != nil {
						return nil, err
					}
					return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
				}
				if err := sched.ValidateScheduleAvoids(r.Chip, r.Assay, sch, banClosed, banOpen); err != nil {
					// The scheduler produced a schedule that touches a
					// banned segment — an internal inconsistency, not an
					// infeasibility; surface it as a plain tier error.
					return nil, err
				}
				pen := sch.ExecutionTime - baseline
				rec := &Reconfiguration{
					Faults:        append([]fault.Fault(nil), faults...),
					BanClosed:     banClosed,
					BanOpen:       banOpen,
					ExecutionTime: sch.ExecutionTime,
					Baseline:      baseline,
					Penalty:       pen,
					Relaxed:       name == TierRelaxed,
				}
				if baseline > 0 {
					rec.PenaltyRatio = float64(pen) / float64(baseline)
				}
				return rec, nil
			},
		}
	}
	runner := &solve.Runner[*Reconfiguration]{
		Tiers:         []solve.TierSpec[*Reconfiguration]{tier(TierStrict), tier(TierReroute), tier(TierRelaxed)},
		Inject:        r.Inject,
		InfeasibleErr: ErrInfeasible,
		OnAttempt:     r.OnAttempt,
	}
	return runner.Run(ctx)
}

// SetReconfig is one reconfiguration-campaign entry: a group of input
// suspect sets that share the same valve bans, reconfigured once.
type SetReconfig struct {
	// Members are the indices (into the Campaign input) of the suspect
	// sets in this group, in first-seen order.
	Members []int
	// BanClosed and BanOpen are the group's shared bans.
	BanClosed []int
	BanOpen   []int
	// Reconfig is the fault-avoiding schedule summary, nil when the chain
	// exhausted (see Err).
	Reconfig *Reconfiguration
	// Provenance records the tier attempts.
	Provenance solve.Provenance
	// Err is the chain error; errors.Is(Err, ErrInfeasible) marks a typed
	// infeasibility.
	Err error
}

// Campaign reconfigures around every suspect set, deduplicating sets that
// map to identical valve bans (signature-equivalent faults always share a
// group) and fanning the distinct groups out over a worker pool (workers
// <= 0 selects GOMAXPROCS). Groups are keyed and ordered by first
// appearance, so the output is bit-identical for any worker count. The
// OnAttempt hook fires serially, in group order, after all workers
// finish.
func (r *Reconfigurer) Campaign(ctx context.Context, suspectSets [][]fault.Fault, workers int) ([]SetReconfig, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, inj := range r.Inject {
		switch inj.Tier {
		case TierStrict, TierReroute, TierRelaxed:
		default:
			return nil, fmt.Errorf("%w: %q (reconfiguration chain has %s, %s, %s)",
				solve.ErrUnknownInjectionTier, inj.Tier, TierStrict, TierReroute, TierRelaxed)
		}
	}
	// The baseline is shared by every group; computing it first keeps the
	// parallel phase read-only on the reconfigurer.
	if _, err := r.Baseline(ctx); err != nil {
		return nil, err
	}

	// Dedupe by ban set.
	groups := make([]SetReconfig, 0, len(suspectSets))
	byKey := map[string]int{}
	rep := make([][]fault.Fault, 0, len(suspectSets))
	for i, set := range suspectSets {
		banClosed, banOpen := Bans(set)
		key := banKey(banClosed, banOpen)
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, SetReconfig{BanClosed: banClosed, BanOpen: banOpen})
			rep = append(rep, set)
		}
		groups[g].Members = append(groups[g].Members, i)
	}

	// Hook-free worker copy; attempts are replayed serially below. The
	// engine memo pointer is shared, so every banKey group reuses the
	// engines built so far (and vice versa).
	worker := &Reconfigurer{
		Chip: r.Chip, Ctrl: r.Ctrl, Assay: r.Assay, Params: r.Params,
		Inject: r.Inject, Metrics: r.Metrics,
	}
	worker.baselineOnce.Do(func() {})
	worker.baselineTime, worker.baselineErr = r.baselineTime, r.baselineErr
	worker.engOnce.Do(func() {})
	worker.engines = r.engineMemo()
	run := func(g int) {
		outcome, err := worker.Run(ctx, rep[g])
		groups[g].Reconfig = outcome.Value
		groups[g].Provenance = outcome.Provenance
		groups[g].Err = err
	}

	if err := par.For(ctx, par.Workers(workers), len(groups), run); err != nil {
		return nil, err
	}

	if r.OnAttempt != nil {
		for g := range groups {
			for _, att := range groups[g].Provenance.Attempts {
				r.OnAttempt(att)
			}
		}
	}
	return groups, nil
}

// banKey canonicalizes a ban pair for deduplication.
func banKey(banClosed, banOpen []int) string {
	buf := make([]byte, 0, 4*(len(banClosed)+len(banOpen))+1)
	for _, v := range banClosed {
		buf = append(buf, 'c')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	for _, v := range banOpen {
		buf = append(buf, 'o')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}
