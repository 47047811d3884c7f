package fault

import "repro/internal/chip"

// This file preserves the seed's serial recomputation path: Detects
// re-derived the fault-free valve states and meter readings for every
// (vector, fault) pair. It is the comparison baseline for the memoized
// engine — BenchmarkEvaluateCoverage/serial measures it, and tests pin
// result equivalence against it. It is not used by the production flow.

// withFault returns the states with fault f injected.
func withFault(open []bool, f Fault) []bool {
	out := append([]bool(nil), open...)
	switch f.Kind {
	case StuckAt0:
		out[f.Valve] = false
	case StuckAt1, Leakage:
		out[f.Valve] = true
	}
	return out
}

// meterReadings returns, for each meter in v, whether it reads pressure
// under the given valve states: one PressureReachable search per
// (source, meter) pair.
func (s *Simulator) meterReadings(v Vector, open []bool) []bool {
	out := make([]bool, len(v.Meters))
	for i, m := range v.Meters {
		mNode := s.chip.Ports[m].Node
		for _, src := range v.Sources {
			if s.chip.PressureReachable(s.chip.Ports[src].Node, mNode, open) {
				out[i] = true
				break
			}
		}
	}
	return out
}

func (s *Simulator) detectsNoMemo(v Vector, f Fault) bool {
	base := s.OpenStates(v)
	good := s.meterReadings(v, base)
	bad := s.meterReadings(v, withFault(base, f))
	for i := range good {
		if good[i] != bad[i] {
			return true
		}
	}
	return false
}

func (s *Simulator) faultFreeOKNoMemo(v Vector) bool {
	return usableReadings(v.Kind, s.meterReadings(v, s.OpenStates(v)))
}

// EvaluateCoverageBaseline runs a coverage campaign with the seed's
// serial, memo-free algorithm. Results are bit-identical to the engine's
// (including Undetected order); only the cost differs.
func EvaluateCoverageBaseline(s *Simulator, vectors []Vector, faults []Fault) Coverage {
	cov := Coverage{Total: len(faults)}
	usable := make([]Vector, 0, len(vectors))
	for _, v := range vectors {
		if s.faultFreeOKNoMemo(v) {
			usable = append(usable, v)
		}
	}
	for _, f := range faults {
		detected := false
		for _, v := range usable {
			if s.detectsNoMemo(v, f) {
				detected = true
				break
			}
		}
		if detected {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, f)
		}
	}
	return cov
}

// BenchCampaignVectors builds the representative small campaign the
// fault benchmarks use: an all-open path vector plus one single-valve cut
// per port-adjacent valve.
func BenchCampaignVectors(c *chip.Chip) []Vector {
	var all []int
	for v := 0; v < c.NumValves(); v++ {
		all = append(all, v)
	}
	vectors := []Vector{{Kind: PathVector, Valves: all, Sources: []int{0}, Meters: []int{1}}}
	for _, p := range c.Ports {
		for _, e := range c.Grid.IncidentEdges(p.Node) {
			if v, ok := c.ValveOnEdge(e); ok {
				vectors = append(vectors, Vector{Kind: CutVector, Valves: []int{v}, Sources: []int{0}, Meters: []int{1}})
			}
		}
	}
	return vectors
}
