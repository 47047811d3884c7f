package main

// fpva.go is the fpva mode: the scaling curve of per-valve test
// generation on parametric FPVA grids (case "NxN"). Per size it times
// testgen.GenerateTemplates (straight grid-line vectors first, the
// per-valve solve otherwise), single-worker on a fresh simulator per op so
// ns per vector compares algorithms cold; testgen.GenerateBaseline, the
// per-valve solve of every valve and the reference, up to fpvaMaxBaseline
// (above it its superlinear cost would dominate the run); and a cold fault
// campaign over the template suite, which asks each vector only the faults
// of the valves on its driven control lines, with the reach and bridge
// counters of those checks (its screen_skips read 0). The template
// record's gates: no valve uncovered, coverage bit-identical to the
// baseline suite (or full where no baseline runs), and the suite
// bit-identical at 1/2/4/8 workers. Its counters add a bounded DAC
// test-path ILP probe and the allocated heap after the size's legs
// (heap_mb). At the largest size with both generators (>= 32x32) the
// template record must be minSpeedup faster per vector; that record is the
// one -baseline holds.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/ilp"
	"repro/internal/testgen"
)

// fpvaSizes is the scaling curve. Sizes above fpvaMaxBaseline skip the
// per-valve baseline leg; sizes up to fpvaMaxILP run the ILP probe.
var fpvaSizes = []int{8, 16, 32, 48, 64}

const (
	fpvaMaxBaseline = 48
	fpvaMaxILP      = 16
	fpvaILPNodes    = 60
	// minSpeedup is the acceptance gate: template vs baseline ns/vector
	// on the largest size both generators run.
	minSpeedup = 5.0
)

// canonicalSuite reduces a suite to the fields the bit-identity checks
// compare (everything except generation statistics).
func canonicalSuite(s *testgen.Suite) any {
	return struct {
		Paths, Cuts   []fault.Vector
		PathOf, CutOf []int
		Uncovered     []int
	}{s.Paths, s.Cuts, s.PathOf, s.CutOf, s.Uncovered}
}

// suiteGen is the signature GenerateTemplatesCtx and GenerateBaselineCtx
// share.
type suiteGen func(context.Context, *fault.Simulator, testgen.SuiteOptions) (*testgen.Suite, error)

// suiteRecord times one single-worker suite generator on c, each op on a
// fresh simulator, and returns its record, with the suite's structure
// counters and the last op's state analyses, and the suite of the last op.
func suiteRecord(cs, variant string, c *chip.Chip, gen suiteGen) (Record, *testgen.Suite, error) {
	var s *testgen.Suite
	var metrics *fault.Metrics
	r, err := measure(cs, variant, func() error {
		sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
		if err != nil {
			return err
		}
		metrics = fault.NewMetrics()
		sim.SetMetrics(metrics)
		s, err = gen(context.Background(), sim, testgen.SuiteOptions{Workers: 1})
		return err
	})
	if err != nil {
		return r, nil, err
	}
	st := s.Stats
	nv := float64(len(s.Paths) + len(s.Cuts))
	r.Counters = map[string]float64{
		"vectors":      nv,
		"ns_vector":    float64(r.NsOp) / nv,
		"raw_vectors":  float64(st.RawVectors),
		"state_evals":  float64(metrics.Snapshot().StateEvals), // distinct valve states analysed
		"path_solves":  float64(st.PathSolves),
		"cut_solves":   float64(st.CutSolves),
		"instantiated": float64(st.Instantiated),
		"fallbacks":    float64(st.Fallbacks),
	}
	return r, s, nil
}

// campaignRecord times a cold fault campaign of vectors on c (a fresh
// simulator per op, so it analyses every state) and records the last
// op's fast-path counters.
func campaignRecord(cs string, c *chip.Chip, vectors []fault.Vector) (Record, error) {
	faults := fault.AllFaults(c)
	var snap fault.MetricsSnapshot
	var cov fault.Coverage
	r, err := measure(cs, "campaign", func() error {
		metrics := fault.NewMetrics()
		sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
		if err != nil {
			return err
		}
		sim.SetMetrics(metrics)
		cov = sim.EvaluateCoverage(vectors, faults)
		snap = metrics.Snapshot()
		return nil
	})
	r.Counters = map[string]float64{
		"faults":         float64(len(faults)),
		"state_evals":    float64(snap.StateEvals), // distinct valve states analysed
		"screen_skips":   float64(snap.ScreenSkips),
		"reach_checks":   float64(snap.ReachChecks),
		"bridge_checks":  float64(snap.BridgeChecks),
		"coverage_ratio": cov.Ratio(),
	}
	return r, err
}

func runFPVA() ([]Record, error) {
	var recs []Record
	// gate indexes the template record at the largest size with both
	// generators; it is appended after its baseline record.
	gate, gateSize := -1, 0
	for _, n := range fpvaSizes {
		c := chip.MustGenerateFPVA(chip.FPVAParams{W: n, H: n, Seed: 1})
		cs := fmt.Sprintf("%dx%d", n, n)
		tmpl, suite, err := suiteRecord(cs, "template", c, testgen.GenerateTemplatesCtx)
		if err != nil {
			return nil, err
		}
		cov := suite.Coverage()
		tmpl.Counters["valves"] = float64(c.NumValves())
		tmpl.Counters["ports"] = float64(len(c.Ports))
		tmpl.Counters["coverage_ratio"] = cov.Ratio()
		tmpl.Gates = map[string]bool{"covered": len(suite.Uncovered) == 0}
		if n <= fpvaMaxBaseline {
			base, baseSuite, err := suiteRecord(cs, "baseline", c, testgen.GenerateBaselineCtx)
			if err != nil {
				return nil, err
			}
			tmpl.Gates["coverage_identical"] = reflect.DeepEqual(cov, baseSuite.Coverage())
			recs = append(recs, base)
			gate, gateSize = len(recs), n
		} else {
			tmpl.Gates["full_coverage"] = cov.Full()
		}

		want := canonicalSuite(suite)
		invariant := true
		for _, w := range []int{2, 4, 8} {
			s, err := testgen.GenerateTemplates(c, testgen.SuiteOptions{Workers: w})
			if err != nil {
				return nil, err
			}
			invariant = invariant && reflect.DeepEqual(want, canonicalSuite(s))
		}
		tmpl.Gates["worker_invariant"] = invariant

		if n <= fpvaMaxILP {
			m, lazy := testgen.PathILPModel(c, 2)
			start := time.Now()
			res, err := m.Solve(ilp.Options{MaxNodes: fpvaILPNodes, Lazy: lazy})
			if err == nil && res.Nodes > 0 {
				tmpl.Counters["ilp_nodes"] = float64(res.Nodes)
				tmpl.Counters["ilp_ns_node"] = float64(time.Since(start).Nanoseconds()) / float64(res.Nodes)
			}
		}

		camp, err := campaignRecord(cs, c, suite.Vectors())
		if err != nil {
			return nil, err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		tmpl.Counters["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		recs = append(recs, tmpl, camp)
	}
	setSpeedups(recs, "baseline", "vectors")
	if gate < 0 {
		return nil, fmt.Errorf("no FPVA size runs both generators")
	}
	recs[gate].Gated = true
	recs[gate].Gates["min_speedup"] = gateSize >= 32 && recs[gate].Speedup >= minSpeedup
	return recs, nil
}
