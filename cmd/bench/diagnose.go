package main

// diagnose.go is the diagnose mode: adaptive fault diagnosis against
// exhaustive replay on every bundled design, DFT-augmented with its
// single-source single-meter test set. An op is a campaign localizing
// every modeled fault, timed single-worker (case <chip>/serial) and on all
// cores (<chip>/parallel), with replay as the reference. The serial
// adaptive record carries the per-fault costs and two gates: its suspect
// sets equal replay's fault for fault, and the campaign is bit-identical
// at 1, 2, 4 and 8 workers.

import (
	"context"
	"reflect"

	"repro/internal/chip"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// replayInject forces the chain past the adaptive and greedy tiers so a
// campaign measures pure exhaustive replay.
func replayInject() []solve.Injection {
	inj, err := solve.ParseInjections(
		diagnose.TierAdaptive + ":infeasible," + diagnose.TierGreedy + ":infeasible")
	if err != nil {
		panic(err)
	}
	return inj
}

func runDiagnose() ([]Record, error) {
	ctx := context.Background()
	var recs []Record
	for _, c := range chip.Benchmarks() {
		aug, err := testgen.AugmentHeuristicCtx(ctx, c, testgen.Options{})
		if err != nil {
			return nil, err
		}
		cuts, err := testgen.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
		if err != nil {
			return nil, err
		}
		vectors := append(aug.PathVectors(), cuts...)
		sim, err := fault.NewSimulator(aug.Chip, chip.IndependentControl(aug.Chip))
		if err != nil {
			return nil, err
		}
		faults := fault.AllFaults(aug.Chip)
		m, err := fault.NewEngine(sim, 0).DetectionMatrix(ctx, vectors, faults)
		if err != nil {
			return nil, err
		}

		adaptive := &diagnose.Planner{Matrix: m}
		replay := &diagnose.Planner{Matrix: m, Inject: replayInject()}
		ref, err := adaptive.Campaign(ctx, 1)
		if err != nil {
			return nil, err
		}
		rep, err := replay.Campaign(ctx, 0)
		if err != nil {
			return nil, err
		}
		match, deterministic := true, true
		totV, maxV, totS, maxS, unique := 0, 0, 0, 0, 0
		for i, fd := range ref {
			v, ns := fd.Result.VectorsApplied(), len(fd.Result.Suspects)
			totV, maxV = totV+v, max(maxV, v)
			totS, maxS = totS+ns, max(maxS, ns)
			if ns == 1 {
				unique++
			}
			if !reflect.DeepEqual(fd.Result.Suspects, rep[i].Result.Suspects) {
				match = false
			}
		}
		for _, w := range []int{2, 4, 8} {
			got, err := adaptive.Campaign(ctx, w)
			if err != nil {
				return nil, err
			}
			deterministic = deterministic && campaignsEqual(ref, got)
		}
		meanV := float64(totV) / float64(len(ref))

		for _, w := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			for _, v := range []struct {
				name    string
				planner *diagnose.Planner
			}{{"adaptive", adaptive}, {"replay", replay}} {
				r, err := measure(c.Name+"/"+w.name, v.name, func() error {
					_, err := v.planner.Campaign(ctx, w.workers)
					return err
				})
				if err != nil {
					return nil, err
				}
				if w.workers == 1 && v.planner == adaptive {
					r.Counters = map[string]float64{
						"vectors":               float64(len(vectors)),
						"faults":                float64(len(faults)),
						"exhaustive_vectors":    float64(m.NumUsable()),
						"adaptive_mean_vectors": meanV,
						"adaptive_max_vectors":  float64(maxV),
						"vector_saving":         1 - meanV/float64(m.NumUsable()),
						"mean_suspects":         float64(totS) / float64(len(ref)),
						"max_suspects":          float64(maxS),
						"uniquely_localized":    float64(unique),
					}
					r.Gates = map[string]bool{"suspects_match_replay": match, "deterministic_1_2_4_8_workers": deterministic}
				}
				recs = append(recs, r)
			}
		}
	}
	setSpeedups(recs, "replay", "")
	return recs, nil
}

// campaignsEqual compares two campaign outputs ignoring wall-clock
// attempt timings.
func campaignsEqual(a, b []diagnose.FaultDiagnosis) bool {
	strip := func(in []diagnose.FaultDiagnosis) []diagnose.FaultDiagnosis {
		out := make([]diagnose.FaultDiagnosis, len(in))
		copy(out, in)
		for i := range out {
			atts := make([]solve.Attempt, len(out[i].Provenance.Attempts))
			copy(atts, out[i].Provenance.Attempts)
			for j := range atts {
				atts[j].Elapsed = 0
			}
			out[i].Provenance.Attempts = atts
		}
		return out
	}
	return reflect.DeepEqual(strip(a), strip(b))
}
