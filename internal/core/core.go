// Package core implements the paper's primary contribution: the two-level
// particle-swarm-optimized design-for-testability flow (Section 4.2).
//
// The outer PSO explores DFT configurations — which free connection-grid
// edges become DFT channels so that a single pressure source and a single
// pressure meter suffice for a complete test. The inner (sub-)PSO explores
// valve-sharing schemes — which original valve each DFT valve borrows its
// control line from. A position is valid only if the test-vector set still
// detects every stuck-at-0/1 fault under the sharing (Section 4.1) and the
// application remains schedulable; its quality is the application's
// execution time, ∞ otherwise.
//
// The flow runs as an explicit flowstage.Pipeline of five stages —
// schedule → reference → banloop → outer → finalize (one file per stage,
// stage_*.go) — so wall-clock, solver iterations and cache traffic are
// attributable per stage (Result.Stats) and observable live
// (Options.Observer). The staged pipeline is bit-identical to the
// original monolithic flow for any fixed seed.
//
// Both PSO levels run the batch-synchronous engine: each generation's
// fitness evaluations fan out over the Options.Workers pool and the
// pbest/gbest updates apply in particle-index order after a barrier, so
// the whole flow's Result is bit-identical for any worker count. The
// fitness caches (augCache per configuration, innerCache per sharing
// scheme) are concurrency-safe content-keyed once-maps whose values are
// pure functions of their keys, and each configuration carries the
// detection matrix of its base vectors (reval.go), so checking a scheme
// simulates only the vectors whose control-line expansion it changes.
package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/par"
	"repro/internal/pso"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// Stage names of the DFT flow pipeline, in execution order.
const (
	// StageSchedule checks the assay on the unmodified chip and records
	// the original execution time.
	StageSchedule = "schedule"
	// StageReference produces the unbiased reference configuration via
	// the exact→heuristic→repair degradation chain.
	StageReference = "reference"
	// StageBanLoop diversifies configurations by banning edges of
	// configurations that admit no valid sharing.
	StageBanLoop = "banloop"
	// StageOuter runs the outer PSO over edge biases (each fitness call
	// runs the inner sharing sub-PSO) and picks the best configuration.
	StageOuter = "outer"
	// StageFinalize decodes the chosen configuration: unoptimized-sharing
	// baseline, control assignment, schedules, repaired vectors, Result.
	StageFinalize = "finalize"
	// StageDiagnose (optional, Options.Diagnose) runs the adaptive
	// fault-diagnosis campaign over the final test set: every modeled
	// fault is localized to its minimal suspect set via the
	// diagnose-adaptive → diagnose-greedy → diagnose-replay chain.
	StageDiagnose = "diagnose"
	// StageReconfigure (optional, Options.Reconfigure) reschedules the
	// assay around every diagnosed suspect set through the reconf-strict →
	// reconf-reroute → reconf-relaxed chain.
	StageReconfigure = "reconfigure"
)

// StageNames lists the always-on pipeline stages in execution order (the
// optional diagnose/reconfigure stages are appended when enabled).
var StageNames = []string{StageSchedule, StageReference, StageBanLoop, StageOuter, StageFinalize}

// Options tunes the DFT flow.
type Options struct {
	// Outer configures the configuration-level PSO (paper: 5 particles,
	// 100 iterations).
	Outer pso.Config
	// Inner configures the valve-sharing sub-PSO (paper: 5 particles).
	Inner pso.Config
	// Sched sets the execution-time model parameters.
	Sched sched.Params
	// UseILP solves the augmentation ILP (eqs. (5)-(6)) for the unbiased
	// reference configuration; the PSO itself always uses the heuristic
	// engine for speed. ILP and heuristic produce compatible
	// configurations, and the exact one seeds the search.
	UseILP bool
	// Seed makes the whole flow deterministic.
	Seed int64
	// Inject forces deterministic faults in the flow's degradation chains
	// (fault-injection drills and tests). Tier names route by prefix:
	// "diagnose-*" to the diagnosis chain, "reconf-*" to the
	// reconfiguration chain, everything else ("exact", "heuristic",
	// "repair") to the augmentation chain. Targeting a disabled stage's
	// chain is a usage error (ErrUnknownInjectionTier).
	Inject []solve.Injection
	// Diagnose appends the adaptive fault-diagnosis stage: after
	// finalize, every modeled fault is localized against the final test
	// set and the campaign summary lands in Result.Diagnosis.
	Diagnose bool
	// DiagnoseBudget caps the vectors the adaptive and greedy diagnosis
	// tiers may apply per fault (0 = unlimited); exceeding it degrades
	// the chain down to the exhaustive replay tier.
	DiagnoseBudget int
	// Reconfigure appends the test-around-fault reconfiguration stage
	// (implies Diagnose): the assay is rescheduled around every diagnosed
	// suspect set and the summary lands in Result.Reconfiguration.
	Reconfigure bool
	// ExactBudget caps the exact-ILP augmentation tier's wall-clock time
	// (0 = solve.DefaultExactBudget). Only meaningful with UseILP.
	ExactBudget time.Duration
	// Workers sets the worker-pool size shared by every coverage check in
	// the flow and by both PSO levels' batch-synchronous generation
	// evaluation (0 = runtime.GOMAXPROCS). Coverage results are
	// bit-identical for any worker count, and so are the PSO trajectories
	// (see package pso); the exact-ILP tier is serial. The Result is
	// worker-count invariant except for Stats.
	Workers int
	// Observer receives live pipeline events: stage boundaries, solver
	// iteration ticks, chain tier transitions, cache-hit deltas. nil
	// disables observation. Observers never affect the search — results
	// are bit-identical with or without one.
	Observer flowstage.Observer
	// Cache is the optional content-addressed artifact cache: when set
	// (and the options are cacheable — no injections, drills or optional
	// stages), RunDFTFlowCtx consults it by (chip, assay, options) digest
	// before solving and stores the finalized Result after. Hits return a
	// decoded copy that is bit-identical to a fresh solve under the
	// canonical result encoding; the synthesized Stats carry an
	// "artifact" stage with art_* counters instead of the solve stages.
	// Caches never affect solved results — only whether the solve runs.
	Cache *Cache
}

func (o Options) withDefaults() Options {
	if o.Outer.Particles == 0 {
		o.Outer.Particles = 5
	}
	if o.Outer.Iterations == 0 {
		o.Outer.Iterations = 100
	}
	if o.Inner.Particles == 0 {
		o.Inner.Particles = 5
	}
	if o.Inner.Iterations == 0 {
		o.Inner.Iterations = 8
	}
	if o.Reconfigure {
		o.Diagnose = true
	}
	return o
}

// Result is the output of the DFT flow: the augmented architecture, the
// sharing scheme, the test vectors, and the execution-time comparison the
// paper's Table 1 reports.
type Result struct {
	// Aug is the best DFT configuration found.
	Aug *testgen.Augmentation
	// Control is the valve-sharing control assignment for Aug.Chip.
	Control *chip.Control
	// Partners[i] is the original valve whose control line DFT valve i
	// shares.
	Partners []int
	// PathVectors and CutVectors form the complete single-source
	// single-meter test set of the augmented chip.
	PathVectors []fault.Vector
	CutVectors  []fault.Vector

	// ExecOriginal is the assay execution time on the unmodified chip.
	ExecOriginal int
	// ExecNoPSO is the execution time with DFT valves and the first valid
	// sharing scheme found without optimization (Table 1's middle column).
	ExecNoPSO int
	// ExecPSO is the execution time with the PSO-optimized sharing.
	ExecPSO int
	// ExecIndependent is the execution time when DFT valves get their own
	// control lines (Fig. 7's comparison).
	ExecIndependent int

	// Trace is the outer PSO's global-best execution time after each
	// iteration (Fig. 9's convergence curves). The flow's final choice may
	// come from the ban-loop seeds or the post-PSO search, so the last
	// entry can lie above ExecPSO.
	Trace []float64

	// NumDFTValves and NumShared reproduce Table 1's first-row counts.
	NumDFTValves int
	NumShared    int
	// NumTestVectors is len(PathVectors)+len(CutVectors) (Fig. 8's DFT
	// bars).
	NumTestVectors int

	// Runtime is the wall-clock time of the flow (Table 1's runtime
	// column).
	Runtime time.Duration

	// Stats is the per-stage breakdown of Runtime: where wall-clock,
	// solver iterations and cache hits went. Stats.Total equals Runtime;
	// Stats.StageSum() accounts for all of it minus inter-stage glue.
	Stats *flowstage.Stats

	// Solve records which tier of the augmentation degradation chain
	// produced the reference configuration and why earlier tiers failed.
	Solve solve.Provenance
	// Leakage quantifies the membrane-leakage extension over the final
	// cut vectors on the sparse pressure engine: which closed-valve leaks
	// push a meter past its threshold. nil only when the final set has no
	// cut vectors to evaluate.
	Leakage *fault.LeakageReport

	// Diagnosis summarizes the adaptive fault-diagnosis campaign. nil
	// unless Options.Diagnose — or when the context died before the
	// stage could run (the flow then skips diagnosis gracefully and
	// marks the result Interrupted instead of failing).
	Diagnosis *DiagnosisSummary
	// Reconfiguration summarizes the test-around-fault reconfiguration
	// campaign. nil unless Options.Reconfigure, and nil whenever
	// Diagnosis is (reconfiguration consumes the diagnosed suspect
	// sets).
	Reconfiguration *ReconfigSummary

	// Interrupted is true when the flow's context expired or was
	// cancelled before the search finished; the result is then valid but
	// less optimized than a full run's.
	Interrupted bool
	// CoverageFull reports whether the final test set detects every
	// stuck-at-0/1 fault. It is false only for degraded (repair-tier)
	// configurations that left some channels untestable.
	CoverageFull bool
}

type flow struct {
	ctx   context.Context
	orig  *chip.Chip
	graph *assay.Graph
	opts  Options

	// obs receives pipeline events (may be nil for hand-built flows in
	// tests; every emit site guards). metrics aggregates fault-simulation
	// counters across all simulators the flow creates; cur is the stats
	// sink of the stage currently running, memoBase its metrics baseline.
	obs      flowstage.Observer
	metrics  *fault.Metrics
	cur      *flowstage.StageStats
	memoBase fault.MetricsSnapshot

	// schedMetrics aggregates warm-scheduler counters across every engine
	// the flow builds; schedBase is the running stage's baseline snapshot.
	// schedEngines caches one warm engine per augmented chip (the ban-set
	// and model parameters are fixed by opts.Sched for the whole flow);
	// entries are once-built so concurrent PSO workers racing on a new
	// chip construct its engine exactly once.
	schedMetrics *sched.Metrics
	schedBase    sched.MetricsSnapshot
	schedMu      sync.Mutex
	schedEngines map[*chip.Chip]*schedEngineEntry

	execOriginal int

	// diagInject and reconfInject are the Options.Inject entries routed
	// (by tier-name prefix) to the optional diagnosis and reconfiguration
	// chains; f.opts.Inject keeps only the augmentation-chain entries.
	diagInject   []solve.Injection
	reconfInject []solve.Injection

	// allowPartial permits DFT valves without a sharing partner (own
	// control line). Off during the main search — the paper requires full
	// sharing — and enabled only for the fallback retry when no full
	// sharing scheme validates anywhere.
	allowPartial bool

	// statMu serializes stage-counter and observer updates that arrive
	// from the PSO worker goroutines during the search stages. Stage
	// boundaries themselves are serial (workers are joined at every
	// generation barrier before a stage ends).
	statMu sync.Mutex

	// augCache memoizes per-configuration artifacts and search state by
	// content key (augKey); innerCache memoizes sharing fitnesses by
	// configuration+partner key. Both are unbounded singleflight once-maps
	// (internal/artifact): concurrent swarm workers racing on a key
	// compute it exactly once, and since every value is a pure function
	// of its key the cache contents are deterministic for any worker
	// count. augCache's keys are the set of configurations the flow has
	// evaluated, which the selection logic (bestEvalSeen, the
	// partial-sharing retry) walks in sorted order.
	augCache   *artifact.Cache[*augEval]
	innerCache *artifact.Cache[float64]

	// plan is the original chip's greedy-augmentation plan, built once by
	// augment.
	planOnce sync.Once
	plan     *testgen.AugmentPlan

	// Typed artifacts handed between pipeline stages.
	chainOut flowstage.Artifact[solve.Outcome[*testgen.Augmentation]]
	refEval  flowstage.Artifact[*augEval]
	outer    flowstage.Artifact[pso.Result]
	bestEval flowstage.Artifact[*augEval]
	final    flowstage.Artifact[*Result]

	// finalSim is the simulator finalize's leakage campaign ran on, under
	// the final chip and control; nil when finalize ran no campaign. The
	// diagnosis stage builds its detection matrix on it, so the cut
	// vectors' states are analysed once.
	finalSim *fault.Simulator
}

// augEval is the flow's one record per configuration: the expensive
// artifacts and the inner search's outcome.
type augEval struct {
	aug     *testgen.Augmentation
	key     string // the augCache content key (augKey(aug))
	paths   []fault.Vector
	cuts    []fault.Vector
	cutsErr error

	// check is the configuration's incremental validation state
	// (reval.go): the detection matrix of its base vectors under
	// independent control.
	check *sharingCheck

	// baselineUndetected is the number of faults the base vectors miss
	// under independent control — the configuration's intrinsic coverage
	// gap (non-zero only for partial repair-tier configurations). Sharing
	// schemes are penalized only for coverage lost beyond this gap.
	baselineUndetected int

	// mu guards the inner-search fields: concurrent outer particles that
	// land on the same configuration serialize on it, so the inner
	// sub-PSO runs exactly once per configuration.
	mu           sync.Mutex
	searched     bool
	bestFit      float64
	bestPartners []int

	// vmu guards the worst-valid tracker separately: it is updated from
	// inside sharing-fitness computes, which run while mu is held by the
	// inner search.
	vmu        sync.Mutex
	worstValid float64
	hasValid   bool
}

// noteValid records a computed sharing fitness when it is a valid FULL
// sharing (below the partial band): worstValidSharing reports the
// maximum such value as the unoptimized reference.
func (ev *augEval) noteValid(fit float64) {
	if fit >= partialBand {
		return
	}
	ev.vmu.Lock()
	if !ev.hasValid || fit > ev.worstValid {
		ev.worstValid, ev.hasValid = fit, true
	}
	ev.vmu.Unlock()
}

// RunDFTFlow runs the complete two-level PSO DFT flow for one chip-assay
// combination.
func RunDFTFlow(c *chip.Chip, g *assay.Graph, opts Options) (*Result, error) {
	return RunDFTFlowCtx(context.Background(), c, g, opts)
}

// RunDFTFlowCtx is RunDFTFlow with cooperative cancellation and graceful
// degradation. The context bounds the search phases (augmentation chain,
// ban loop, outer and inner PSO): when it expires mid-search the flow
// finishes with the best configuration found so far and marks the result
// Interrupted, rather than failing. Finalization (decoding, scheduling,
// vector repair) always runs to completion so an interrupted flow still
// returns a complete, valid result. Only a context that dies before any
// configuration exists makes the flow fail with the context's error.
//
// The flow is an explicit five-stage pipeline (see StageNames); the
// returned Result.Stats carries the per-stage breakdown and
// opts.Observer, when set, receives every stage and solver event live.
func RunDFTFlowCtx(ctx context.Context, c *chip.Chip, g *assay.Graph, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	cc := opts.Cache
	if cc == nil || !flowCacheable(opts) {
		return runDFTFlowSolve(ctx, c, g, opts, start)
	}
	d := flowDigest(c, g, opts)
	decode := func(b []byte) (*Result, error) { return DecodeResult(c, b) }
	if res, tier := lookup(cc, "flow", d, decode); tier != "" {
		res.Runtime = time.Since(start)
		res.Stats = artifactStats(opts.Observer, res.Runtime,
			map[string]int64{"art_" + tier + "_hits": 1})
		return res, nil
	}
	res, err := runDFTFlowSolve(ctx, c, g, opts, start)
	if err != nil {
		return nil, err
	}
	counters := map[string]int64{"art_miss": 1}
	if !res.Interrupted {
		// Interrupted results are valid but less optimized — never the
		// canonical value for this digest, so never cached.
		if payload, encErr := EncodeResult(res); encErr == nil {
			cc.add("flow", d, payload)
			counters["art_store"] = 1
		}
	}
	appendArtifactStage(res.Stats, opts.Observer, counters)
	return res, nil
}

// runDFTFlowSolve is the uncached flow: the full five-stage pipeline.
func runDFTFlowSolve(ctx context.Context, c *chip.Chip, g *assay.Graph, opts Options, start time.Time) (*Result, error) {
	augInject, diagInject, reconfInject := solve.SplitInjections(opts.Inject)
	if len(diagInject) > 0 && !opts.Diagnose {
		return nil, fmt.Errorf("%w: %q (diagnosis stage not enabled)",
			solve.ErrUnknownInjectionTier, diagInject[0].Tier)
	}
	if len(reconfInject) > 0 && !opts.Reconfigure {
		return nil, fmt.Errorf("%w: %q (reconfiguration stage not enabled)",
			solve.ErrUnknownInjectionTier, reconfInject[0].Tier)
	}
	opts.Inject = augInject
	f := &flow{
		ctx:          ctx,
		orig:         c,
		graph:        g,
		opts:         opts,
		obs:          opts.Observer,
		metrics:      fault.NewMetrics(),
		diagInject:   diagInject,
		reconfInject: reconfInject,
		augCache:     artifact.NewCache[*augEval](),
		innerCache:   artifact.NewCache[float64](),
		schedMetrics: sched.NewMetrics(),
		schedEngines: make(map[*chip.Chip]*schedEngineEntry),
	}
	stages := []flowstage.Stage{
		{Name: StageSchedule, Run: f.runScheduleStage},
		{Name: StageReference, Run: f.runReferenceStage},
		{Name: StageBanLoop, Run: f.runBanLoopStage},
		{Name: StageOuter, Run: f.runOuterStage},
		{Name: StageFinalize, Run: f.runFinalizeStage},
	}
	if opts.Diagnose {
		stages = append(stages, flowstage.Stage{Name: StageDiagnose, Run: f.runDiagnoseStage})
	}
	if opts.Reconfigure {
		stages = append(stages, flowstage.Stage{Name: StageReconfigure, Run: f.runReconfigureStage})
	}
	pipe := &flowstage.Pipeline{
		Observer: f.obs,
		Stages:   stages,
	}
	stats, err := pipe.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := f.final.Get()
	res.Runtime = time.Since(start)
	stats.Total = res.Runtime
	res.Stats = stats
	return res, nil
}

// --- per-stage instrumentation ---------------------------------------------

// observer returns the flow's observer, never nil.
func (f *flow) observer() flowstage.Observer { return flowstage.OrNop(f.obs) }

// stageName returns the running stage's name ("" outside a stage).
func (f *flow) stageName() string {
	if f.cur == nil {
		return ""
	}
	return f.cur.Name
}

// enterStage binds the stage's stats sink and snapshots the shared fault
// metrics so leaveStage can attribute the deltas.
func (f *flow) enterStage(st *flowstage.StageStats) {
	f.cur = st
	f.memoBase = f.metrics.Snapshot()
	f.schedBase = f.schedMetrics.Snapshot()
}

// CountFault folds a stage's fault-simulation traffic, the delta d of a
// fault.Metrics, into its stats and emits the state-memo delta to the
// observer (nil for none). The flow's stages and faultsim's share it, so
// both report the same fault_* counters.
func CountFault(st *flowstage.StageStats, obs flowstage.Observer, d fault.MetricsSnapshot) {
	st.CacheHits += d.MemoHits
	st.CacheMisses += d.MemoMisses
	st.Count("fault_memo_hits", d.MemoHits)
	st.Count("fault_memo_misses", d.MemoMisses)
	st.Count("fault_state_evals", d.StateEvals)
	st.Count("fault_campaigns", d.Campaigns)
	st.Count("fault_screen_skips", d.ScreenSkips)
	st.Count("fault_reach_checks", d.ReachChecks)
	st.Count("fault_bridge_checks", d.BridgeChecks)
	if d.MemoHits != 0 || d.MemoMisses != 0 {
		flowstage.OrNop(obs).CacheDelta(st.Name, "fault_memo", d.MemoHits, d.MemoMisses)
	}
}

// leaveStage folds the stage's fault-simulation memo traffic into its
// stats and emits the per-cache deltas to the observer.
func (f *flow) leaveStage(st *flowstage.StageStats) {
	obs := f.observer()
	CountFault(st, obs, f.metrics.Snapshot().Sub(f.memoBase))
	for _, cache := range []string{"aug_cache", "inner_cache"} {
		if h, m := st.Counter(cache+"_hits"), st.Counter(cache+"_misses"); h != 0 || m != 0 {
			obs.CacheDelta(st.Name, cache, h, m)
		}
	}
	CountSched(st, f.schedMetrics.Snapshot().Sub(f.schedBase))
	f.cur = nil
}

// CountSched folds a stage's scheduler-engine traffic, the delta d of a
// sched.Metrics, into its stats as the sched_* counters.
func CountSched(st *flowstage.StageStats, d sched.MetricsSnapshot) {
	st.Count("sched_engine_builds", d.EngineBuilds)
	st.Count("sched_warm_runs", d.WarmRuns)
	st.Count("sched_fallback_reroutes", d.FallbackReroutes)
	st.Count("sched_livelocks", d.Livelocks)
}

// noteCache attributes one flow-level cache lookup to the running stage.
// Safe to call from PSO worker goroutines: counter updates serialize on
// statMu (f.cur itself only changes at stage boundaries, when no workers
// run).
func (f *flow) noteCache(cache string, hit bool) {
	if f.cur == nil {
		return
	}
	f.statMu.Lock()
	defer f.statMu.Unlock()
	if hit {
		f.cur.CacheHits++
		f.cur.Count(cache+"_hits", 1)
	} else {
		f.cur.CacheMisses++
		f.cur.Count(cache+"_misses", 1)
	}
}

// countStage adds delta to the running stage's named counter; like
// noteCache it is safe from worker goroutines.
func (f *flow) countStage(name string, delta int64) {
	if f.cur == nil || delta == 0 {
		return
	}
	f.statMu.Lock()
	f.cur.Count(name, delta)
	f.statMu.Unlock()
}

// solverTick is the pso.Config.OnIteration adapter: it counts the
// iteration on the running stage and forwards the tick to the observer.
// Inner sub-PSO ticks may arrive from outer-swarm worker goroutines;
// statMu keeps the counter updates and observer emissions serialized
// (observers never see concurrent calls).
func (f *flow) solverTick(iteration int, best float64) {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	if f.cur != nil {
		f.cur.SolverIters++
	}
	if f.obs != nil {
		f.obs.SolverTick(f.stageName(), iteration, best)
	}
}

// newSimulator builds a fault simulator wired to the flow's shared
// metrics, so memo-cache traffic is attributable per stage.
func (f *flow) newSimulator(c *chip.Chip, ctrl *chip.Control) (*fault.Simulator, error) {
	sim, err := fault.NewSimulator(c, ctrl)
	if err == nil && f.metrics != nil {
		sim.SetMetrics(f.metrics)
	}
	return sim, err
}

// workers resolves Options.Workers the way the solver engines do: 0
// selects all CPU cores.
func (f *flow) workers() int { return par.Workers(f.opts.Workers) }

// --- shared search machinery (used by the banloop/outer/finalize stages) ----

// augment produces a DFT configuration for the given edge-weight bias
// with the fast greedy engine (the search loops never pay for the ILP;
// the unbiased reference goes through solve.AugmentChain instead). The
// chip's augmentation plan is built on the first call and shared by the
// swarm workers.
func (f *flow) augment(weights []float64) (*testgen.Augmentation, error) {
	f.planOnce.Do(func() { f.plan = testgen.NewAugmentPlan(f.orig) })
	return f.plan.Heuristic(f.ctx, testgen.Options{EdgeWeights: weights})
}

// evalAug returns the cached per-configuration artifacts, generating paths
// and cuts on first sight. Concurrent swarm workers that land on the same
// configuration compute it exactly once (the losers block on the winner);
// since the artifacts are pure functions of the content key, the cache is
// deterministic for any worker count.
func (f *flow) evalAug(aug *testgen.Augmentation) *augEval {
	key := augKey(aug)
	ev, hit := f.augCache.Do(key, func() *augEval {
		ev := &augEval{aug: aug, key: key, bestFit: math.Inf(1)}
		ev.paths = aug.PathVectors()
		ev.cuts, ev.cutsErr = testgen.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
		if ev.cutsErr != nil && len(aug.Uncovered) > 0 {
			// Partial repair-tier configuration: a complete stuck-at-1 cover
			// may be impossible. Keep the paths' coverage instead of failing —
			// the intrinsic gap is accounted for in baselineUndetected.
			ev.cuts, ev.cutsErr = nil, nil
		}
		ev.check = f.newSharingCheck(aug.Chip, append(append([]fault.Vector{}, ev.paths...), ev.cuts...))
		ev.baselineUndetected = ev.check.gap()
		return ev
	})
	f.noteCache("aug_cache", hit)
	return ev
}

// bestSharingFitness runs the inner sub-PSO for a configuration and
// returns the minimum execution time over valid sharing schemes (∞ if
// none). Results are cached per configuration.
func (f *flow) bestSharingFitness(ev *augEval) float64 {
	if ev.cutsErr != nil {
		return math.Inf(1)
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if ev.searched {
		return ev.bestFit
	}
	ev.searched = true
	nDFT := ev.aug.Chip.NumDFTValves()
	innerCfg := f.opts.Inner
	innerCfg.Seed = f.opts.Seed ^ int64(len(ev.key)) ^ hashString(ev.key)
	innerCfg.OnIteration = f.solverTick
	innerCfg.Workers = f.workers()
	res := pso.MinimizeCtx(f.ctx, nDFT, func(x []float64) float64 {
		partners := f.decodePartners(ev.aug.Chip, x)
		return f.sharingFitness(ev, partners)
	}, innerCfg)
	f.countStage("pso_inner_evals", int64(res.Evaluations))
	if res.BestFitness < ev.bestFit {
		ev.bestFit = res.BestFitness
		ev.bestPartners = f.decodePartners(ev.aug.Chip, res.BestX)
	}
	if f.allowPartial {
		// Guaranteed baseline: every DFT valve on its own line is always
		// test-valid (the base vectors were generated under independent
		// control); the swarm may miss this corner of the position space.
		allOwn := make([]int, nDFT)
		for i := range allOwn {
			allOwn[i] = -1
		}
		if fit := f.sharingFitness(ev, allOwn); fit < ev.bestFit {
			ev.bestFit = fit
			ev.bestPartners = allOwn
		}
	}
	return ev.bestFit
}

// decodePartners maps a continuous inner-PSO position to an injective
// partner assignment (eq. (10)): component i selects an original valve,
// or — the last slot of the range — an own control line (-1, partial
// sharing, heavily penalized by the fitness so it only survives when no
// full sharing validates). Collisions on original valves are repaired by
// walking to the next free one.
func (f *flow) decodePartners(c *chip.Chip, x []float64) []int {
	nOrig := c.NumOriginalValves()
	used := make([]bool, nOrig)
	partners := make([]int, len(x))
	span := nOrig
	if f.allowPartial {
		span = nOrig + 1
	}
	nUsed := 0
	for i, xi := range x {
		p := pso.MapToPartner(xi, span)
		// Own line when the position selects the partial-sharing slot, or
		// when no free original line remains — a chip with no original
		// valves (nOrig == 0, MapToPartner collapses to slot 0 == nOrig)
		// or more DFT valves than originals would otherwise send the
		// collision walk below into an endless loop over all-used lines.
		if p == nOrig || nUsed == nOrig {
			partners[i] = -1 // own line
			continue
		}
		for used[p] {
			p = (p + 1) % nOrig
		}
		used[p] = true
		nUsed++
		partners[i] = p
	}
	return partners
}

// sharingFitness is the paper's position quality: ∞ if the sharing scheme
// breaks the test set or the schedule, otherwise the execution time.
// Memoized per (configuration, partner assignment); swarms revisit
// schemes constantly, and concurrent workers racing on one compute it
// exactly once.
func (f *flow) sharingFitness(ev *augEval, partners []int) float64 {
	fit, hit := f.innerCache.Do(innerKey(ev, partners), func() float64 {
		fit := f.computeSharingFitness(ev, partners)
		ev.noteValid(fit)
		return fit
	})
	f.noteCache("inner_cache", hit)
	return fit
}

// innerKey is the innerCache content key of a sharing scheme. The "|p"
// separator cannot occur inside augKey's own structure (path segments
// start with "|["), so schemes of different configurations never share
// a key.
func innerKey(ev *augEval, partners []int) string {
	return ev.key + "|p" + intsKey(partners)
}

// Invalid positions get graded penalties above penaltyBase instead of a
// flat ∞, so the swarm can climb towards validity (fewer uncovered faults
// first, then schedulability). Anything at or above validThreshold counts
// as "quality ∞" in the paper's sense. Valid schemes that leave some DFT
// valves on their own control lines (partial sharing, the fallback for
// chips where no full sharing validates) are penalized per unshared valve
// in the partialBand, so any full sharing always dominates them.
const (
	penaltyBase    = 1e9
	validThreshold = 1e8
	partialBand    = 1e6
)

// schedEngineEntry is one once-built warm scheduler engine in the flow's
// per-chip cache.
type schedEngineEntry struct {
	once sync.Once
	eng  *sched.Engine
	err  error
}

// schedEngine returns the flow's warm scheduler engine for chip c, building
// it at most once per chip. Augmented chips are distinct pointers, so the
// pointer key separates configurations; the ban-set and model parameters
// are fixed by opts.Sched for the whole flow, so one engine per chip is
// exhaustive. Safe from concurrent PSO workers.
func (f *flow) schedEngine(c *chip.Chip) (*sched.Engine, error) {
	f.schedMu.Lock()
	if f.schedEngines == nil {
		// Hand-built flows (tests) skip RunDFTFlowCtx's initialization.
		f.schedEngines = make(map[*chip.Chip]*schedEngineEntry)
	}
	ent, ok := f.schedEngines[c]
	if !ok {
		ent = &schedEngineEntry{}
		f.schedEngines[c] = ent
	}
	f.schedMu.Unlock()
	ent.once.Do(func() {
		ent.eng, ent.err = sched.NewEngine(c, f.graph, f.opts.Sched)
		if ent.err == nil {
			ent.eng.SetMetrics(f.schedMetrics)
		}
	})
	return ent.eng, ent.err
}

// runSched schedules the assay on c under ctrl through the flow's warm
// engine for that chip.
func (f *flow) runSched(c *chip.Chip, ctrl *chip.Control) (*sched.Schedule, int, error) {
	eng, err := f.schedEngine(c)
	if err != nil {
		return nil, 0, err
	}
	return eng.RunProgress(ctrl, f.opts.Sched)
}

// execTime is the makespan-only convenience over runSched; ok is false for
// unschedulable combinations.
func (f *flow) execTime(c *chip.Chip, ctrl *chip.Control) (int, bool) {
	sch, _, err := f.runSched(c, ctrl)
	if err != nil {
		return 0, false
	}
	return sch.ExecutionTime, true
}

func (f *flow) computeSharingFitness(ev *augEval, partners []int) float64 {
	c := ev.aug.Chip
	ctrl, err := chip.SharedControl(c, partners)
	if err != nil {
		return math.Inf(1)
	}
	// Test validation (Section 4.1): every stuck-at-0 and stuck-at-1 fault
	// must remain detectable under the sharing. Vectors masked by the
	// sharing are repaired with sharing-immune replacements ("test vectors
	// considering valve sharing"); reval.go checks the scheme
	// incrementally.
	_, _, remaining, err := f.validateSharing(f.ctx, ev, ctrl, partners)
	if err != nil {
		// Cancelled mid-campaign: the surrounding PSO is unwinding, so any
		// finite fitness here would be discarded anyway.
		return math.Inf(1)
	}
	// Only coverage lost beyond the configuration's intrinsic gap (zero
	// unless a partial repair-tier configuration) invalidates the scheme.
	if remaining > ev.baselineUndetected {
		return penaltyBase + 1e6*float64(remaining)
	}
	// Application validation: the assay must still complete; quality is
	// its execution time. Wedged schedules are graded by how far they got,
	// giving the swarm a slope towards schedulability.
	sch, opsDone, err := f.runSched(c, ctrl)
	if err != nil {
		return penaltyBase + 1e5 - 100*float64(opsDone)
	}
	fit := float64(sch.ExecutionTime)
	for _, p := range partners {
		if p == -1 {
			fit += partialBand
		}
	}
	return fit
}

// bestEvalSeen returns the configuration with the lowest sharing fitness
// among all configurations evaluated so far (falling back to ref).
// Iteration follows the lexicographic order of the configuration content
// keys and only a strictly better fitness displaces the incumbent, so
// ties resolve deterministically — ref first, then the smallest key —
// instead of by Go's randomized map order.
func (f *flow) bestEvalSeen(ref *augEval) *augEval {
	best := ref
	bestFit := f.bestSharingFitness(ref)
	for _, k := range f.augCache.SortedKeys() {
		ev, _ := f.augCache.Get(k)
		ev.mu.Lock()
		searched, fit := ev.searched, ev.bestFit
		ev.mu.Unlock()
		if searched && fit < bestFit {
			best, bestFit = ev, fit
		}
	}
	return best
}

func (f *flow) freeEdges() []int {
	var out []int
	for e := 0; e < f.orig.Grid.NumEdges(); e++ {
		if _, occupied := f.orig.ValveOnEdge(e); !occupied {
			out = append(out, e)
		}
	}
	return out
}

// augKey is the content key of a configuration: the added edges, the test
// ports and the full path routing. Paths are part of the key because the
// greedy engine can realize the same edge set with different routings
// under different weight biases, and cached artifacts must be pure
// functions of their key for the concurrent caches to stay deterministic.
//
// The key is the fmt form "e%v|s%d|m%d" of the added edges and ports
// followed by "|%v" per path, built without fmt. Its bytes must not
// change: its length and hash seed each configuration's inner swarm, and
// its sort order breaks bestEvalSeen's ties.
func augKey(aug *testgen.Augmentation) string {
	n := 16 + 4*len(aug.AddedEdges)
	for _, p := range aug.Paths {
		n += 3 + 4*len(p)
	}
	b := append(make([]byte, 0, n), 'e')
	b = appendList(b, aug.AddedEdges)
	b = append(b, "|s"...)
	b = strconv.AppendInt(b, int64(aug.Source), 10)
	b = append(b, "|m"...)
	b = strconv.AppendInt(b, int64(aug.Meter), 10)
	for _, p := range aug.Paths {
		b = appendList(append(b, '|'), p)
	}
	return string(b)
}

// appendList appends s in fmt's %v form: "[1 2 3]".
func appendList(b []byte, s []int) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// intsKey is s with every element followed by a comma: "1,-1,".
func intsKey(s []int) string {
	b := make([]byte, 0, 4*len(s))
	for _, v := range s {
		b = append(strconv.AppendInt(b, int64(v), 10), ',')
	}
	return string(b)
}

func hashString(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
