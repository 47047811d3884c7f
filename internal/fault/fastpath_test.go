package fault

import (
	"math/rand"
	"reflect"
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

// TestSharedStateMatchesNoMemo pins the state memo: vectors that apply
// one (kind, valves) state but differ in sources and meters, 2-source and
// 2-meter shapes included, share one state analysis and must still get the
// memo-free oracle's verdicts, under independent and shared control. Each
// valve set is applied as both a path and a cut, which expand to different
// states. On every fault, FaultFreeOK, Detects and Certifies must equal
// the oracle, and Cover must set exactly the faults the oracle certifies
// and report FaultFreeOK. Every query looks the state up once: only a
// state's first query may miss, so every other port shape hits.
func TestSharedStateMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		for _, ctrl := range testControls(chip.Random(rng)) {
			cc := ctrl.Chip()
			m := NewMetrics()
			sim := MustSimulator(cc, ctrl)
			sim.SetMetrics(m)
			faults := AllFaultsOfKinds(cc, StuckAt0, StuckAt1, Leakage)
			covered := make([]uint64, (len(faults)+63)/64)
			states := map[string]bool{}
			queries := int64(0)
			for i := 0; i < 6; i++ {
				v := randomVector(rng, cc)
				for _, kind := range []VectorKind{PathVector, CutVector} {
					v.Kind = kind
					states[string(appendStateKey(nil, v))] = true
					shapes := 3 + rng.Intn(3)
					for shape := 0; shape < shapes; shape++ {
						v.Sources, v.Meters = randomPorts(rng, cc, 1+shape%2, 1+shape/2%2)
						ok := sim.faultFreeOKNoMemo(v)
						if got := sim.FaultFreeOK(v); got != ok {
							t.Fatalf("chip %s trial %d: FaultFreeOK(%v) = %v, memo-free says %v", cc.Name, trial, v, got, ok)
						}
						clear(covered)
						if got := sim.Cover(v, faults, covered); got != ok {
							t.Fatalf("chip %s trial %d: Cover(%v) reports usable %v, memo-free says %v", cc.Name, trial, v, got, ok)
						}
						for j, f := range faults {
							want := sim.detectsNoMemo(v, f)
							if got := sim.Detects(v, f); got != want {
								t.Fatalf("chip %s trial %d: Detects(%v, %v) = %v, memo-free says %v", cc.Name, trial, v, f, got, want)
							}
							if got := sim.Certifies(v, f); got != (ok && want) {
								t.Fatalf("chip %s trial %d: Certifies(%v, %v) = %v, memo-free says %v", cc.Name, trial, v, f, got, ok && want)
							}
							if got := covered[j>>6]&(1<<(uint(j)&63)) != 0; got != (ok && want) {
								t.Fatalf("chip %s trial %d: Cover(%v) sets %v = %v, memo-free says %v", cc.Name, trial, v, f, got, ok && want)
							}
						}
						queries += 2 + 2*int64(len(faults))
					}
				}
			}
			snap := m.Snapshot()
			if want := int64(len(states)); snap.StateEvals != want || snap.MemoMisses != want {
				t.Fatalf("chip %s: %d state analyses and %d state-memo misses for %d distinct states; port shapes must share them",
					cc.Name, snap.StateEvals, snap.MemoMisses, want)
			}
			if snap.MemoHits+snap.MemoMisses != queries {
				t.Fatalf("chip %s: %d state-memo lookups for %d queries, want one each", cc.Name, snap.MemoHits+snap.MemoMisses, queries)
			}
		}
	}
}

// TestFastPathCoverageMatchesBaseline pins whole campaigns to the serial
// memo-free baseline: bit-identical Coverage, Undetected order included,
// at 1, 2 and 8 workers, under the independent and the shared control of
// testControls, on the bundled designs and on random chips. The vectors
// are BenchCampaignVectors, campaignVectors and random ones, unusable and
// multi-source or multi-meter shapes included, against all three fault
// kinds. The campaign
// asks each usable vector only the faults it can reveal, so it must make
// no screen skips and exactly the reach and bridge checks of a fault-major
// scan that asks every (fault, usable vector) pair up to the fault's first
// detection.
func TestFastPathCoverageMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	chips := chip.Benchmarks()
	for i := 0; i < 10; i++ {
		chips = append(chips, chip.Random(rng))
	}
	for _, c := range chips {
		for _, ctrl := range testControls(c) {
			cc := ctrl.Chip()
			vectors := append(BenchCampaignVectors(cc), campaignVectors(cc)...)
			for i := 0; i < 24; i++ {
				vectors = append(vectors, randomVector(rng, cc))
			}
			faults := AllFaultsOfKinds(cc, StuckAt0, StuckAt1, Leakage)
			want := EvaluateCoverageBaseline(MustSimulator(cc, ctrl), vectors, faults)
			rules := faultMajorRules(MustSimulator(cc, ctrl), vectors, faults)
			for _, workers := range []int{1, 2, 8} {
				m := NewMetrics()
				sim := MustSimulator(cc, ctrl)
				sim.SetMetrics(m)
				got := NewEngine(sim, workers).EvaluateCoverage(vectors, faults)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (%d valves, %d lines) workers=%d: coverage %+v, baseline %+v", cc.Name, cc.NumValves(), ctrl.NumLines(), workers, got, want)
				}
				snap := m.Snapshot()
				if snap.ScreenSkips != 0 || snap.ReachChecks != rules.reaches || snap.BridgeChecks != rules.bridges {
					t.Fatalf("%s (%d valves, %d lines) workers=%d: %d screens, %d reach and %d bridge checks; fault-major scan makes %d reach and %d bridge checks",
						cc.Name, cc.NumValves(), ctrl.NumLines(), workers, snap.ScreenSkips, snap.ReachChecks, snap.BridgeChecks, rules.reaches, rules.bridges)
				}
			}
		}
	}
}

// faultMajorRules tallies the rules detectsEval applies when each fault
// asks every usable vector, in campaign order, up to its first detection.
func faultMajorRules(sim *Simulator, vectors []Vector, faults []Fault) ruleTally {
	var usable []*vectorEval
	for _, v := range vectors {
		ev := new(vectorEval)
		sim.eval(v, ev)
		if ev.usable {
			usable = append(usable, ev)
		}
	}
	var t ruleTally
	for _, f := range faults {
		for _, ev := range usable {
			if detectsEval(sim.chip, ev, f, &t) {
				break
			}
		}
	}
	return t
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
