package core

import (
	"context"
	"time"

	"repro/internal/artifact"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/testgen"
)

// Stage names of the standalone test-suite pipeline (RunSuite), in
// execution order. They deliberately do not collide with the DFT flow's
// stage names so observers can tell the two pipelines apart.
const (
	// StageSuiteGen generates the per-valve path/cut vector suite with
	// the symmetry-exploiting template engine.
	StageSuiteGen = "suitegen"
	// StageSuiteCampaign fault-simulates the generated suite against
	// every stuck-at fault of the chip and records the coverage.
	StageSuiteCampaign = "suitecampaign"
)

// SuiteRunOptions tunes RunSuite.
type SuiteRunOptions struct {
	// Workers sets the worker-pool size of both generation and the
	// coverage campaign (0 = runtime.GOMAXPROCS). Results are
	// bit-identical for any worker count.
	Workers int
	// Templates optionally supplies a shared template engine so the
	// content-keyed class cache persists across chips (scaling sweeps);
	// nil means a fresh engine.
	Templates *testgen.TemplateEngine
	// Observer receives live stage/cache/counter events; nil for none.
	Observer flowstage.Observer
	// Cache is the optional content-addressed artifact cache: hits skip
	// both stages and return a decoded suite bit-identical to a fresh
	// generation; the synthesized Stats carry an "artifact" stage with
	// art_* counters. The suite's vectors never depend on cache warmth,
	// so every worker count is cacheable.
	Cache *Cache
}

// SuiteRunResult is the outcome of one RunSuite pipeline.
type SuiteRunResult struct {
	// Suite is the generated per-valve vector suite.
	Suite *testgen.Suite
	// Coverage is the suite's stuck-at coverage under independent
	// control.
	Coverage fault.Coverage
	// Metrics is the fault-simulation metrics delta of the whole run
	// (campaign fast-path rule traffic included).
	Metrics fault.MetricsSnapshot
	// Stats carries the per-stage wall-clock and counters.
	Stats *flowstage.Stats
	// Runtime is the total pipeline wall-clock.
	Runtime time.Duration
}

// suiteRun is the mutable state threaded through the pipeline stages.
type suiteRun struct {
	chip    *chip.Chip
	opts    SuiteRunOptions
	metrics *fault.Metrics
	suite   flowstage.Artifact[*testgen.Suite]
	cov     flowstage.Artifact[fault.Coverage]
}

// RunSuite is RunSuiteCtx without cancellation.
func RunSuite(c *chip.Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	return RunSuiteCtx(context.Background(), c, opts)
}

// RunSuiteCtx generates a complete per-valve test suite for the chip with
// the template engine (testgen.TemplateEngine) and fault-simulates it, as
// an observable two-stage flowstage pipeline (suitegen → suitecampaign).
// Stage counters attribute the template engine's class/cache/fallback
// traffic and the campaign's fast-path rule usage, so scaling sweeps (the
// repository benchmark's suite_fpva workload) can report where time goes.
func RunSuiteCtx(ctx context.Context, c *chip.Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	start := time.Now()
	var digest artifact.Digest
	if cc := opts.Cache; cc != nil {
		digest = suiteDigest(c)
		decode := func(b []byte) (*SuiteRunResult, error) {
			suite, cov, err := DecodeSuite(c, b)
			return &SuiteRunResult{Suite: suite, Coverage: cov}, err
		}
		if res, tier := lookup(cc, "suite", digest, decode); tier != "" {
			res.Runtime = time.Since(start)
			res.Stats = artifactStats(opts.Observer, res.Runtime,
				map[string]int64{"art_" + tier + "_hits": 1})
			return res, nil
		}
	}
	r := &suiteRun{chip: c, opts: opts, metrics: fault.NewMetrics()}
	pipe := &flowstage.Pipeline{
		Observer: opts.Observer,
		Stages: []flowstage.Stage{
			{Name: StageSuiteGen, Run: r.runGenerateStage},
			{Name: StageSuiteCampaign, Run: r.runCampaignStage},
		},
	}
	stats, err := pipe.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &SuiteRunResult{
		Suite:    r.suite.Get(),
		Coverage: r.cov.Get(),
		Metrics:  r.metrics.Snapshot(),
		Stats:    stats,
		Runtime:  time.Since(start),
	}
	if cc := opts.Cache; cc != nil {
		counters := map[string]int64{"art_miss": 1}
		if payload, encErr := EncodeSuite(res.Suite, res.Coverage); encErr == nil {
			cc.add("suite", digest, payload)
			counters["art_store"] = 1
		}
		appendArtifactStage(res.Stats, opts.Observer, counters)
	}
	return res, nil
}

// runGenerateStage runs the template engine and folds its SuiteStats into
// the stage counters.
func (r *suiteRun) runGenerateStage(ctx context.Context, st *flowstage.StageStats) error {
	eng := r.opts.Templates
	if eng == nil {
		eng = testgen.NewTemplateEngine()
	}
	s, err := eng.GenerateCtx(ctx, r.chip, testgen.SuiteOptions{Workers: r.opts.Workers})
	if err != nil {
		return err
	}
	st.Count("tmpl_classes", int64(s.Stats.Classes))
	st.Count("tmpl_line_classes", int64(s.Stats.LineClasses))
	st.Count("tmpl_cache_hits", s.Stats.TemplateHits)
	st.Count("tmpl_instantiated", s.Stats.Instantiated)
	st.Count("tmpl_fallbacks", s.Stats.Fallbacks)
	st.CacheHits += s.Stats.TemplateHits
	st.CacheMisses += int64(s.Stats.Classes)
	if s.Stats.TemplateHits != 0 || s.Stats.Classes != 0 {
		flowstage.OrNop(r.opts.Observer).CacheDelta(st.Name, "template_cache",
			s.Stats.TemplateHits, int64(s.Stats.Classes))
	}
	st.Count("suite_vectors", int64(len(s.Paths)+len(s.Cuts)))
	st.Count("suite_raw_vectors", int64(s.Stats.RawVectors))
	st.Count("suite_path_solves", s.Stats.PathSolves)
	st.Count("suite_cut_solves", s.Stats.CutSolves)
	st.Count("suite_uncovered", int64(len(s.Uncovered)))
	r.suite.Set(s)
	return nil
}

// runCampaignStage fault-simulates the generated suite against every
// stuck-at fault under independent control, with the run's shared metrics
// attached so the stage counters expose the fast-path rule traffic.
func (r *suiteRun) runCampaignStage(ctx context.Context, st *flowstage.StageStats) error {
	s := r.suite.Get()
	sim, err := fault.NewSimulator(r.chip, chip.IndependentControl(r.chip))
	if err != nil {
		return err
	}
	sim.SetMetrics(r.metrics)
	base := r.metrics.Snapshot()
	cov, err := fault.NewEngine(sim, r.opts.Workers).
		EvaluateCoverageCtx(ctx, s.Vectors(), fault.AllFaults(r.chip))
	if err != nil {
		return err
	}
	delta := r.metrics.Snapshot().Sub(base)
	st.CacheHits += delta.MemoHits
	st.CacheMisses += delta.MemoMisses
	st.Count("fault_memo_hits", delta.MemoHits)
	st.Count("fault_memo_misses", delta.MemoMisses)
	st.Count("fault_state_evals", delta.StateEvals)
	st.Count("fault_campaigns", delta.Campaigns)
	st.Count("fault_screen_skips", delta.ScreenSkips)
	st.Count("fault_reach_checks", delta.ReachChecks)
	st.Count("fault_bridge_checks", delta.BridgeChecks)
	st.Count("cov_detected", int64(cov.Detected))
	st.Count("cov_total", int64(cov.Total))
	if delta.MemoHits != 0 || delta.MemoMisses != 0 {
		flowstage.OrNop(r.opts.Observer).CacheDelta(st.Name, "fault_memo",
			delta.MemoHits, delta.MemoMisses)
	}
	r.cov.Set(cov)
	return nil
}
