package fault

import (
	"math/rand"
	"testing"

	"repro/internal/chip"
)

// randomVector draws a vector with random kind, valve set, and port sets,
// including multi-source/multi-meter and degenerate (unusable) shapes.
func randomVector(rng *rand.Rand, c *chip.Chip) Vector {
	kind := PathVector
	if rng.Intn(2) == 1 {
		kind = CutVector
	}
	nv := rng.Intn(c.NumValves() + 1)
	seen := map[int]bool{}
	var valves []int
	for len(valves) < nv {
		v := rng.Intn(c.NumValves())
		if !seen[v] {
			seen[v] = true
			valves = append(valves, v)
		}
	}
	src, met := randomPorts(rng, c, 1+rng.Intn(2), 1+rng.Intn(2))
	return Vector{Kind: kind, Valves: valves, Sources: src, Meters: met}
}

// randomPorts draws nSrc distinct sources and nMet distinct meters (a port
// may be both), falling back to one of each on chips with too few ports.
func randomPorts(rng *rand.Rand, c *chip.Chip, nSrc, nMet int) (src, met []int) {
	pick := func(n int) []int {
		var out []int
		used := map[int]bool{}
		for len(out) < n {
			p := rng.Intn(len(c.Ports))
			if !used[p] {
				used[p] = true
				out = append(out, p)
			}
		}
		return out
	}
	if nSrc+nMet > len(c.Ports) {
		nSrc, nMet = 1, 1
	}
	return pick(nSrc), pick(nMet)
}

// testControls returns c's independent control and, when it builds, the
// shared control of a clone with up to three DFT valves, so equivalence
// tests exercise sharing-induced masking too.
func testControls(c *chip.Chip) []*chip.Control {
	ctrls := []*chip.Control{chip.IndependentControl(c)}
	aug := c.Clone()
	added := 0
	for e := 0; e < aug.Grid.NumEdges() && added < 3; e++ {
		if _, ok := aug.ValveOnEdge(e); !ok {
			if _, err := aug.AddDFTChannel(e); err == nil {
				added++
			}
		}
	}
	partners := make([]int, aug.NumDFTValves())
	for i := range partners {
		partners[i] = i % aug.NumOriginalValves()
	}
	if sc, err := chip.SharedControl(aug, partners); err == nil {
		ctrls = append(ctrls, sc)
	}
	return ctrls
}

// TestDetectsFastPathEquivalence pins the campaign fast path (saturation
// screen + single-edge reach rule) to the seed's memo-free simulation on
// random chips, random vectors and every fault kind, under independent
// and shared control.
func TestDetectsFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		for _, ctrl := range testControls(chip.Random(rng)) {
			cc := ctrl.Chip()
			sim := MustSimulator(cc, ctrl)
			for i := 0; i < 30; i++ {
				v := randomVector(rng, cc)
				for _, kind := range []Kind{StuckAt0, StuckAt1, Leakage} {
					valve := rng.Intn(cc.NumValves())
					f := Fault{Kind: kind, Valve: valve}
					got := sim.Detects(v, f)
					want := sim.detectsNoMemo(v, f)
					if got != want {
						t.Fatalf("chip %s trial %d: Detects(%v, %v) = %v, memo-free says %v",
							cc.Name, trial, v, f, got, want)
					}
				}
			}
		}
	}
}

// TestSharedStateMatchesNoMemo pins the two-level memo: vectors that apply
// one (kind, valves) state but differ in sources and meters, 2-source and
// 2-meter shapes included, share one state analysis and must still get the
// memo-free oracle's FaultFreeOK and Detects verdicts on every fault,
// under independent and shared control. Each valve set is applied as both
// a path and a cut, which expand to different states.
func TestSharedStateMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		for _, ctrl := range testControls(chip.Random(rng)) {
			cc := ctrl.Chip()
			m := NewMetrics()
			sim := MustSimulator(cc, ctrl)
			sim.SetMetrics(m)
			faults := AllFaultsOfKinds(cc, StuckAt0, StuckAt1, Leakage)
			for i := 0; i < 6; i++ {
				v := randomVector(rng, cc)
				for _, kind := range []VectorKind{PathVector, CutVector} {
					v.Kind = kind
					shapes := 3 + rng.Intn(3)
					for shape := 0; shape < shapes; shape++ {
						v.Sources, v.Meters = randomPorts(rng, cc, 1+shape%2, 1+shape/2%2)
						if got, want := sim.FaultFreeOK(v), sim.faultFreeOKNoMemo(v); got != want {
							t.Fatalf("chip %s trial %d: FaultFreeOK(%v) = %v, memo-free says %v", cc.Name, trial, v, got, want)
						}
						for _, f := range faults {
							if got, want := sim.Detects(v, f), sim.detectsNoMemo(v, f); got != want {
								t.Fatalf("chip %s trial %d: Detects(%v, %v) = %v, memo-free says %v", cc.Name, trial, v, f, got, want)
							}
						}
					}
				}
			}
			if snap := m.Snapshot(); snap.StateEvals >= snap.MemoMisses {
				t.Fatalf("chip %s: %d state analyses for %d vector-memo misses; states are not shared",
					cc.Name, snap.StateEvals, snap.MemoMisses)
			}
		}
	}
}

// TestFastPathCoverageMatchesBaseline runs whole campaigns on the bundled
// designs and checks the engine (with the fast path) still produces
// bit-identical Coverage to the serial memo-free baseline.
func TestFastPathCoverageMatchesBaseline(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		vectors := BenchCampaignVectors(c)
		faults := AllFaultsOfKinds(c, StuckAt0, StuckAt1, Leakage)
		simA := MustSimulator(c, chip.IndependentControl(c))
		simB := MustSimulator(c, chip.IndependentControl(c))
		want := EvaluateCoverageBaseline(simA, vectors, faults)
		for _, workers := range []int{1, 4} {
			got := NewEngine(simB, workers).EvaluateCoverage(vectors, faults)
			if got.Total != want.Total || got.Detected != want.Detected || len(got.Undetected) != len(want.Undetected) {
				t.Fatalf("%s workers=%d: coverage %+v != baseline %+v", c.Name, workers, got, want)
			}
			for i := range got.Undetected {
				if got.Undetected[i] != want.Undetected[i] {
					t.Fatalf("%s workers=%d: Undetected[%d] = %v != %v", c.Name, workers, i, got.Undetected[i], want.Undetected[i])
				}
			}
		}
	}
}

// TestFastPathMetrics checks the screen/reach-rule counters move during a
// campaign (the scaling bench reports them as "pressure solves avoided").
func TestFastPathMetrics(t *testing.T) {
	c := chip.IVD()
	m := NewMetrics()
	sim := MustSimulator(c, chip.IndependentControl(c))
	sim.SetMetrics(m)
	NewEngine(sim, 1).EvaluateCoverage(BenchCampaignVectors(c), AllFaults(c))
	snap := m.Snapshot()
	if snap.ScreenSkips+snap.ReachChecks == 0 {
		t.Fatalf("fast path never engaged: %+v", snap)
	}
}
