package fault

// leakage.go quantifies the membrane-leakage defects the paper mentions
// but does not evaluate ("can be tested similarly"). The boolean
// simulator treats a leaky closed valve like stuck-at-1 — pressure either
// crosses or it doesn't — which overstates a real meter: a leak conducts
// only a little, so the arriving flow may sit below the meter's
// threshold. This file reruns the cut vectors through the quantitative
// model of package pressure and reports which valves' leaks actually
// register.
//
// The workload is exactly what the sparse pressure engine is built for:
// per cut vector, the fault-free conductance state followed by one
// single-valve perturbation per closed valve — consecutive solves differ
// in at most two entries, so almost every solve takes the engine's warm
// Sherman–Morrison–Woodbury path. The vectors of a rig are solved in
// order on one solver, so the report, solve counters included, is the
// same on every run.

import (
	"context"
	"fmt"

	"repro/internal/pressure"
)

// LeakageOptions tunes a leakage quantification campaign.
type LeakageOptions struct {
	// Params sets the physical model (open/leak conductance, meter
	// threshold); the zero value uses the pressure package defaults.
	Params pressure.Params
}

// LeakageReport summarizes which closed-valve leaks the cut vectors
// expose under the quantitative pressure model.
type LeakageReport struct {
	// Examined counts the valves driven closed by at least one usable
	// single-source single-meter cut vector — the leaks the test set gets
	// a chance to see.
	Examined int
	// Detectable counts examined valves whose leak pushes some cut
	// vector's meter flow above the threshold.
	Detectable int
	// Undetectable lists the examined valves whose leak never registers
	// (ascending valve IDs). These leaks pass the test plan unnoticed at
	// the configured meter sensitivity.
	Undetectable []int
	// Vectors counts the cut vectors evaluated.
	Vectors int
	// Solves aggregates the pressure-engine counters of the campaign
	// (total/cold/warm solves, update ranks, fallbacks).
	Solves pressure.EngineStats
}

// Ratio returns Detectable/Examined in [0,1] (1 when nothing was
// examined).
func (r *LeakageReport) Ratio() float64 {
	if r.Examined == 0 {
		return 1
	}
	return float64(r.Detectable) / float64(r.Examined)
}

func (r *LeakageReport) String() string {
	return fmt.Sprintf("leakage %d/%d detectable (%.1f%%)", r.Detectable, r.Examined, 100*r.Ratio())
}

// QuantifyLeakage runs the quantitative leakage campaign: for every
// usable single-source single-meter cut vector, it solves the fault-free
// pressure system plus one leaky variant per closed valve, batched
// through a cached-factorization pressure engine per rig. A leak is
// detectable when its flow exceeds the meter threshold while the
// fault-free flow does not. Sharing-forced valve states are honoured via
// the simulator's control expansion.
func QuantifyLeakage(ctx context.Context, sim *Simulator, cuts []Vector, opts LeakageOptions) (*LeakageReport, error) {
	p := opts.Params.WithDefaults()
	c := sim.Chip()
	nv := c.NumValves()
	examined := make([]bool, nv)
	detected := make([]bool, nv)

	type rigKey struct{ src, mtr int }
	engines := map[rigKey]*pressure.Engine{}
	rep := &LeakageReport{}

	batch := make([][]float64, 0, nv+1)
	valves := make([]int, 0, nv)
	for _, v := range cuts {
		if v.Kind != CutVector || len(v.Sources) != 1 || len(v.Meters) != 1 {
			continue // leakage crosses closed valves; need a single rig
		}
		if !sim.FaultFreeOK(v) {
			continue
		}
		key := rigKey{src: c.Ports[v.Sources[0]].Node, mtr: c.Ports[v.Meters[0]].Node}
		eng, ok := engines[key]
		if !ok {
			var err error
			eng, err = pressure.NewEngine(c, key.src, key.mtr, pressure.EngineOptions{})
			if err != nil {
				return nil, err
			}
			engines[key] = eng
		}
		open := sim.OpenStates(v)
		base := pressure.Conductances(c, open, p, nil)
		batch, valves = batch[:0], valves[:0]
		batch = append(batch, base)
		for valve, isOpen := range open {
			if isOpen {
				continue
			}
			leaky := append([]float64(nil), base...)
			leaky[valve] = p.LeakConductance
			batch = append(batch, leaky)
			valves = append(valves, valve)
		}
		flows, err := eng.EvaluateAll(ctx, batch)
		if err != nil {
			return nil, err
		}
		rep.Vectors++
		if flows[0] > p.MeterThreshold {
			// The quantitative model disagrees with the boolean usability
			// check (cannot happen: both are exact on the same graph) —
			// detections against a non-silent baseline would be meaningless.
			return nil, fmt.Errorf("fault: cut vector %v reads %g on a fault-free chip", v, flows[0])
		}
		for i, valve := range valves {
			examined[valve] = true
			if flows[i+1] > p.MeterThreshold {
				detected[valve] = true
			}
		}
	}

	for valve := 0; valve < nv; valve++ {
		if !examined[valve] {
			continue
		}
		rep.Examined++
		if detected[valve] {
			rep.Detectable++
		} else {
			rep.Undetectable = append(rep.Undetectable, valve)
		}
	}
	for _, eng := range engines {
		rep.Solves = rep.Solves.Add(eng.Stats())
	}
	return rep, nil
}
