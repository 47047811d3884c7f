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
	// StageSuiteGen generates the per-valve path/cut vector suite:
	// straight grid-line vectors first, the per-valve solve otherwise.
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

// suiteRun is the mutable state threaded through the pipeline stages. Its
// simulator certifies the generated vectors and then runs the campaign, so
// the campaign re-derives no analysis generation made; it must not outlive
// the run, so the result never references it.
type suiteRun struct {
	chip    *chip.Chip
	opts    SuiteRunOptions
	metrics *fault.Metrics
	sim     *fault.Simulator
	suite   flowstage.Artifact[*testgen.Suite]
	cov     flowstage.Artifact[fault.Coverage]
}

// RunSuite is RunSuiteCtx without cancellation.
func RunSuite(c *chip.Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	return RunSuiteCtx(context.Background(), c, opts)
}

// RunSuiteCtx generates a complete per-valve test suite for the chip with
// testgen.GenerateTemplatesCtx and fault-simulates it, as an observable
// two-stage flowstage pipeline (suitegen → suitecampaign) over one
// simulator under independent control. Stage counters attribute the line
// and per-valve vectors of generation and the fault-simulation traffic of
// both stages, so scaling sweeps (the repository benchmark's suite_fpva
// workload) can report where time goes.
func RunSuiteCtx(ctx context.Context, c *chip.Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	start := time.Now()
	var digest artifact.Digest
	if cc := opts.Cache; cc != nil {
		digest = suiteDigest(c)
		decode := func(b []byte) (*SuiteRunResult, error) {
			suite, cov, err := DecodeSuite(c, b)
			return &SuiteRunResult{Suite: suite, Coverage: cov}, err
		}
		if res, hit := lookup(cc, "suite", digest, decode); hit {
			res.Runtime = time.Since(start)
			res.Stats = artifactStats(opts.Observer, res.Runtime)
			return res, nil
		}
	}
	sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
	if err != nil {
		return nil, err
	}
	r := &suiteRun{chip: c, opts: opts, metrics: fault.NewMetrics(), sim: sim}
	sim.SetMetrics(r.metrics)
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

// runGenerateStage generates the suite on the run's simulator and folds
// its SuiteStats and fault-simulation traffic into the stage counters.
func (r *suiteRun) runGenerateStage(ctx context.Context, st *flowstage.StageStats) error {
	base := r.metrics.Snapshot()
	s, err := testgen.GenerateTemplatesCtx(ctx, r.sim, testgen.SuiteOptions{Workers: r.opts.Workers})
	if err != nil {
		return err
	}
	CountFault(st, r.opts.Observer, r.metrics.Snapshot().Sub(base))
	st.Count("tmpl_instantiated", s.Stats.Instantiated)
	st.Count("tmpl_fallbacks", s.Stats.Fallbacks)
	st.Count("suite_vectors", int64(len(s.Paths)+len(s.Cuts)))
	st.Count("suite_raw_vectors", int64(s.Stats.RawVectors))
	st.Count("suite_path_solves", s.Stats.PathSolves)
	st.Count("suite_cut_solves", s.Stats.CutSolves)
	st.Count("suite_uncovered", int64(len(s.Uncovered)))
	r.suite.Set(s)
	return nil
}

// runCampaignStage fault-simulates the generated suite against every
// stuck-at fault on the run's simulator, whose memo already holds every
// vector generation certified.
func (r *suiteRun) runCampaignStage(ctx context.Context, st *flowstage.StageStats) error {
	base := r.metrics.Snapshot()
	cov, err := fault.NewEngine(r.sim, r.opts.Workers).
		EvaluateCoverageCtx(ctx, r.suite.Get().Vectors(), fault.AllFaults(r.chip))
	if err != nil {
		return err
	}
	CountFault(st, r.opts.Observer, r.metrics.Snapshot().Sub(base))
	st.Count("cov_detected", int64(cov.Detected))
	st.Count("cov_total", int64(cov.Total))
	r.cov.Set(cov)
	return nil
}
