package main

// sched.go is the -sched mode: it measures the warm-start scheduler engine
// against the preserved seed scheduler on every bundled chip/assay
// combination. Each op schedules the same augmented chip under a fixed set
// of control assignments (the fitness-path access pattern: one chip, many
// sharing schemes). The legs:
//
//   - baseline: sched.RunBaseline — the seed scheduler preserved verbatim,
//     rebuilding adjacency, candidate routes, doorstep sets and priorities
//     from scratch on every call. The denominator of every speedup.
//   - cold: sched.Run — a fresh Engine per call. Measures what the
//     decomposition costs when nothing is amortized; it should sit near
//     the baseline.
//   - warm: one Engine built before the clock starts, Engine.Run per
//     control. This is how core fitness, diagnosis and reconfiguration
//     consume the scheduler; the build cost amortizes to zero.
//
// Before any timing, every control is scheduled through all three legs and
// the schedules are compared bit for bit — a mismatch is a hard failure,
// not a report field.
//
// The mode closes with an end-to-end A/B on the largest design: the full
// DFT flow with Options.SchedBaseline (every fitness schedule through the
// seed path) against the normal engine-backed flow, asserting the results
// are identical and reporting the outer-stage wall-clock delta plus the
// sched_* stage counters.
//
// The committed BENCH_sched.json is regenerated with:
//
//	go run ./cmd/bench -sched -out BENCH_sched.json

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/pso"
	"repro/internal/sched"
)

// SchedDoc is the serialized scheduler-engine benchmark report.
type SchedDoc struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Designs    []SchedDesign `json:"designs"`
	// EndToEnd is the full-flow A/B on the largest design.
	EndToEnd SchedEndToEnd `json:"end_to_end"`
}

// SchedDesign is one chip/assay combination's measurements.
type SchedDesign struct {
	Chip  string `json:"chip"`
	Assay string `json:"assay"`
	// Controls is how many control assignments one op schedules.
	Controls int `json:"controls"`
	// BitIdentical records that baseline, cold and warm produced deeply
	// equal schedules (or identical errors) for every control.
	BitIdentical bool `json:"bit_identical"`
	// WarmSpeedup is baseline ns/op over warm ns/op — the headline gain.
	WarmSpeedup float64       `json:"warm_speedup_vs_baseline"`
	Results     []SchedResult `json:"results"`
}

// SchedResult is one leg's measurement. An op schedules the full control
// set once.
type SchedResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	SpeedupVs   float64 `json:"speedup_vs_baseline,omitempty"`
}

// SchedEndToEnd is the whole-flow A/B: identical Options except
// SchedBaseline, identical results required.
type SchedEndToEnd struct {
	Chip  string `json:"chip"`
	Assay string `json:"assay"`
	// Deterministic records that the engine-backed flow and the
	// baseline-scheduler flow returned a bit-identical result.
	Deterministic   bool    `json:"baseline_engine_result_identical"`
	BaselineOuterNs int64   `json:"baseline_outer_stage_ns"`
	EngineOuterNs   int64   `json:"engine_outer_stage_ns"`
	OuterSpeedup    float64 `json:"outer_speedup"`
	// The engine-backed flow's sched_* counters, summed over all stages.
	EngineBuilds     int64 `json:"sched_engine_builds"`
	WarmRuns         int64 `json:"sched_warm_runs"`
	CandidateHits    int64 `json:"sched_candidate_hits"`
	FallbackReroutes int64 `json:"sched_fallback_reroutes"`
	Livelocks        int64 `json:"sched_livelocks"`
}

// schedAugment clones c and adds n DFT channels on the first free edges,
// mirroring what the flow's augmentation stage does to the chip the
// fitness scheduler sees.
func schedAugment(c *chip.Chip, n int) (*chip.Chip, error) {
	out := c.Clone()
	added := 0
	for e := 0; e < out.Grid.NumEdges() && added < n; e++ {
		if _, occ := out.ValveOnEdge(e); occ {
			continue
		}
		if _, err := out.AddDFTChannel(e); err != nil {
			return nil, err
		}
		added++
	}
	if added < n {
		return nil, fmt.Errorf("only %d of %d DFT channels fit on %s", added, n, c.Name)
	}
	return out, nil
}

// schedControls builds the fixed control set one op schedules: the
// independent assignment plus deterministic random sharing schemes, the
// access pattern of the PSO's inner swarm.
func schedControls(c *chip.Chip, n int, seed int64) ([]*chip.Control, error) {
	rng := rand.New(rand.NewSource(seed))
	ctrls := []*chip.Control{chip.IndependentControl(c)}
	nOrig := c.NumOriginalValves()
	for len(ctrls) < n {
		partner := make([]int, c.NumDFTValves())
		used := make(map[int]bool)
		for i := range partner {
			partner[i] = -1
			if rng.Intn(2) == 0 {
				p := rng.Intn(nOrig)
				if !used[p] {
					used[p] = true
					partner[i] = p
				}
			}
		}
		ctrl, err := chip.SharedControl(c, partner)
		if err != nil {
			return nil, err
		}
		ctrls = append(ctrls, ctrl)
	}
	return ctrls, nil
}

// schedSameRun compares two (schedule, error) outcomes bit for bit.
func schedSameRun(a *sched.Schedule, aErr error, b *sched.Schedule, bErr error) error {
	if (aErr == nil) != (bErr == nil) {
		return fmt.Errorf("error disposition differs: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		if aErr.Error() != bErr.Error() {
			return fmt.Errorf("error text differs: %q vs %q", aErr, bErr)
		}
		return nil
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("schedules differ: %+v vs %+v", a, b)
	}
	return nil
}

func runSched(outFile string) int {
	combos := []struct {
		chip  *chip.Chip
		assay *assay.Graph
	}{
		{chip.IVD(), assay.IVD()},
		{chip.RA30(), assay.PID()},
		{chip.MRNA(), assay.CPA()},
	}
	const nControls = 8
	params := sched.Params{}

	doc := SchedDoc{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, combo := range combos {
		aug, err := schedAugment(combo.chip, 4)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		ctrls, err := schedControls(aug, nControls, 2018)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		g := combo.assay

		// Correctness gate before any clock starts: all three legs must
		// agree on every control.
		warmEng, err := sched.NewEngine(aug, g, params)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		for i, ctrl := range ctrls {
			base, baseErr := sched.RunBaseline(aug, ctrl, g, params)
			warm, warmErr := warmEng.Run(ctrl, params)
			if err := schedSameRun(base, baseErr, warm, warmErr); err != nil {
				return cliutil.Fail(tool, fmt.Errorf("%s ctrl %d: warm vs baseline: %w", combo.chip.Name, i, err))
			}
			cold, coldErr := sched.Run(aug, ctrl, g, params)
			if err := schedSameRun(base, baseErr, cold, coldErr); err != nil {
				return cliutil.Fail(tool, fmt.Errorf("%s ctrl %d: cold vs baseline: %w", combo.chip.Name, i, err))
			}
		}

		legs := []struct {
			name string
			run  func()
		}{
			{"baseline", func() {
				for _, ctrl := range ctrls {
					sched.RunBaseline(aug, ctrl, g, params)
				}
			}},
			{"cold", func() {
				for _, ctrl := range ctrls {
					sched.Run(aug, ctrl, g, params)
				}
			}},
			{"warm", func() {
				for _, ctrl := range ctrls {
					warmEng.Run(ctrl, params)
				}
			}},
		}

		d := SchedDesign{Chip: combo.chip.Name, Assay: g.Name, Controls: len(ctrls), BitIdentical: true}
		var baseNs int64
		for _, leg := range legs {
			run := leg.run
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
			r := SchedResult{
				Name:        leg.name,
				Iterations:  br.N,
				NsPerOp:     br.NsPerOp(),
				BytesPerOp:  br.AllocedBytesPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			}
			if leg.name == "baseline" {
				baseNs = r.NsPerOp
			} else if baseNs > 0 && r.NsPerOp > 0 {
				r.SpeedupVs = float64(baseNs) / float64(r.NsPerOp)
				if leg.name == "warm" {
					d.WarmSpeedup = r.SpeedupVs
				}
			}
			d.Results = append(d.Results, r)
			fmt.Fprintf(os.Stderr, "%-6s %-8s %12d ns/op %10d B/op %8d allocs/op\n",
				combo.chip.Name, leg.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		doc.Designs = append(doc.Designs, d)
	}

	e2e, err := runSchedEndToEnd()
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	doc.EndToEnd = *e2e

	return writeBenchArtifact(outFile, doc)
}

// runSchedEndToEnd A/Bs the full DFT flow on the largest design: identical
// options except SchedBaseline, results must match bit for bit.
func runSchedEndToEnd() (*SchedEndToEnd, error) {
	c, g := chip.MRNA(), assay.CPA()
	opts := func(baseline bool) core.Options {
		return core.Options{
			Outer:         pso.Config{Particles: 5, Iterations: 20},
			Inner:         pso.Config{Particles: 5, Iterations: 8},
			Seed:          2018,
			Workers:       1,
			SchedBaseline: baseline,
		}
	}
	baseRes, err := core.RunDFTFlow(c, g, opts(true))
	if err != nil {
		return nil, err
	}
	engRes, err := core.RunDFTFlow(c, g, opts(false))
	if err != nil {
		return nil, err
	}
	e2e := &SchedEndToEnd{
		Chip:          c.Name,
		Assay:         g.Name,
		Deterministic: psoResultKey(baseRes) == psoResultKey(engRes),
	}
	if !e2e.Deterministic {
		return nil, fmt.Errorf("%s: SchedBaseline changed the flow result:\n baseline: %s\n engine:   %s",
			c.Name, psoResultKey(baseRes), psoResultKey(engRes))
	}
	if outer := baseRes.Stats.Stage(core.StageOuter); outer != nil {
		e2e.BaselineOuterNs = outer.Duration.Nanoseconds()
	}
	if outer := engRes.Stats.Stage(core.StageOuter); outer != nil {
		e2e.EngineOuterNs = outer.Duration.Nanoseconds()
	}
	if e2e.BaselineOuterNs > 0 && e2e.EngineOuterNs > 0 {
		e2e.OuterSpeedup = float64(e2e.BaselineOuterNs) / float64(e2e.EngineOuterNs)
	}
	for _, st := range engRes.Stats.Stages {
		e2e.EngineBuilds += st.Counters["sched_engine_builds"]
		e2e.WarmRuns += st.Counters["sched_warm_runs"]
		e2e.CandidateHits += st.Counters["sched_candidate_hits"]
		e2e.FallbackReroutes += st.Counters["sched_fallback_reroutes"]
		e2e.Livelocks += st.Counters["sched_livelocks"]
	}
	fmt.Fprintf(os.Stderr, "%-6s end-to-end outer %10.1fms (baseline) vs %10.1fms (engine)  builds %d  runs %d  cand_hits %d  livelocks %d\n",
		c.Name, float64(e2e.BaselineOuterNs)/1e6, float64(e2e.EngineOuterNs)/1e6,
		e2e.EngineBuilds, e2e.WarmRuns, e2e.CandidateHits, e2e.Livelocks)
	return e2e, nil
}
