package fault

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chip"
)

// campaignVectors builds a representative campaign for equivalence tests:
// shortest-channel-path vectors between every connected port pair, one
// single-valve cut per port-incident valve, an all-open multi-meter
// vector, and one deliberately unusable vector (exercises the FaultFreeOK
// filter).
func campaignVectors(c *chip.Chip) []Vector {
	g := c.Grid.Graph()
	channel := func(e int) bool {
		_, ok := c.ValveOnEdge(e)
		return ok
	}
	var out []Vector
	for i := 0; i < len(c.Ports); i++ {
		for j := i + 1; j < len(c.Ports); j++ {
			_, edges, ok := g.ShortestPath(c.Ports[i].Node, c.Ports[j].Node, channel)
			if !ok {
				continue
			}
			var valves []int
			for _, e := range edges {
				v, _ := c.ValveOnEdge(e)
				valves = append(valves, v)
			}
			out = append(out, Vector{Kind: PathVector, Valves: valves, Sources: []int{i}, Meters: []int{j}})
		}
	}
	for _, p := range c.Ports {
		for _, e := range c.Grid.IncidentEdges(p.Node) {
			if v, ok := c.ValveOnEdge(e); ok {
				out = append(out, Vector{Kind: CutVector, Valves: []int{v}, Sources: []int{0}, Meters: []int{1}})
			}
		}
	}
	var all []int
	for v := 0; v < c.NumValves(); v++ {
		all = append(all, v)
	}
	meters := []int{1}
	if len(c.Ports) > 2 {
		meters = append(meters, 2)
	}
	out = append(out, Vector{Kind: PathVector, Valves: all, Sources: []int{0}, Meters: meters})
	out = append(out, Vector{Kind: PathVector, Valves: nil, Sources: []int{0}, Meters: []int{1}}) // unusable
	return out
}

// TestEngineMatchesSerialOnBenchmarks checks that the parallel engine is
// bit-identical to the serial path on every bundled benchmark chip.
func TestEngineMatchesSerialOnBenchmarks(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		vectors := campaignVectors(c)
		faults := AllFaultsOfKinds(c, StuckAt0, StuckAt1, Leakage)
		want := MustSimulator(c, chip.IndependentControl(c)).EvaluateCoverage(vectors, faults)
		for _, workers := range []int{1, 2, 3, 8} {
			sim := MustSimulator(c, chip.IndependentControl(c)) // fresh cache
			got := NewEngine(sim, workers).EvaluateCoverage(vectors, faults)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s workers=%d: coverage %+v, want %+v", c.Name, workers, got, want)
			}
		}
	}
}

// TestEngineParallelSerialEquivalenceRandom is the property test of the
// determinism guarantee: over random chips, EvaluateCoverage with 1 worker
// and N workers return identical Coverage including Undetected order.
func TestEngineParallelSerialEquivalenceRandom(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for seed := int64(0); seed < 12; seed++ {
		c := chip.Random(rand.New(rand.NewSource(seed)))
		vectors := campaignVectors(c)
		faults := AllFaultsOfKinds(c, StuckAt0, StuckAt1, Leakage)
		one := NewEngine(MustSimulator(c, chip.IndependentControl(c)), 1).EvaluateCoverage(vectors, faults)
		for _, workers := range []int{2, n, n + 3} {
			sim := MustSimulator(c, chip.IndependentControl(c))
			got := NewEngine(sim, workers).EvaluateCoverage(vectors, faults)
			if !reflect.DeepEqual(one, got) {
				t.Fatalf("seed %d workers=%d: coverage diverges\n got %+v\nwant %+v", seed, workers, got, one)
			}
			// Re-running on the warmed cache must not change the result.
			again := NewEngine(sim, workers).EvaluateCoverage(vectors, faults)
			if !reflect.DeepEqual(one, again) {
				t.Fatalf("seed %d workers=%d: warmed-cache rerun diverges", seed, workers)
			}
		}
	}
}

// TestEngineUnderSharingMatchesSerial covers the sharing-expansion path:
// a DFT valve sharing an original valve's line can mask faults, and the
// parallel engine must agree with the serial simulator about it.
func TestEngineUnderSharingMatchesSerial(t *testing.T) {
	c := chip.IVD().Clone()
	free := -1
	for e := 0; e < c.Grid.NumEdges(); e++ {
		if _, occupied := c.ValveOnEdge(e); !occupied {
			free = e
			break
		}
	}
	if free < 0 {
		t.Fatal("IVD has no free edge")
	}
	if _, err := c.AddDFTChannel(free); err != nil {
		t.Fatal(err)
	}
	ctrl, err := chip.SharedControl(c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	vectors := campaignVectors(c)
	faults := AllFaults(c)
	want := MustSimulator(c, ctrl).EvaluateCoverage(vectors, faults)
	got := NewEngine(MustSimulator(c, ctrl), 4).EvaluateCoverage(vectors, faults)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sharing: parallel %+v, serial %+v", got, want)
	}
}

// TestMemoizedDetectsMatchesRecompute pins the Detects memoization fix:
// cached fault-free readings must give exactly the per-call recomputation
// results, on first sight and on cache hits.
func TestMemoizedDetectsMatchesRecompute(t *testing.T) {
	c := chip.MRNA()
	sim := indepSim(c)
	vectors := campaignVectors(c)
	faults := AllFaultsOfKinds(c, StuckAt0, StuckAt1, Leakage)
	for round := 0; round < 2; round++ { // round 2 hits the cache
		for _, v := range vectors {
			for _, f := range faults {
				if got, want := sim.Detects(v, f), sim.detectsNoMemo(v, f); got != want {
					t.Fatalf("round %d: Detects(%v, %v) = %v, recompute = %v", round, v, f, got, want)
				}
			}
			if got, want := sim.FaultFreeOK(v), sim.faultFreeOKNoMemo(v); got != want {
				t.Fatalf("round %d: FaultFreeOK(%v) = %v, recompute = %v", round, v, got, want)
			}
		}
	}
}

// TestSimulatorConcurrentUse exercises the memo cache and scratch pool
// from many goroutines (meaningful under -race).
func TestSimulatorConcurrentUse(t *testing.T) {
	c := chip.IVD()
	sim := indepSim(c)
	vectors := campaignVectors(c)
	faults := AllFaults(c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range vectors {
				for _, f := range faults {
					sim.Detects(v, f)
				}
			}
		}()
	}
	wg.Wait()
}

func TestEngineCancelledContext(t *testing.T) {
	c := chip.IVD()
	sim := indepSim(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := NewEngine(sim, workers).EvaluateCoverageCtx(ctx, campaignVectors(c), AllFaults(c))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEngineCancelMidCampaign cancels concurrently with a running pool;
// the campaign must either finish with the exact serial result or report
// the context error — never a torn result.
func TestEngineCancelMidCampaign(t *testing.T) {
	c := chip.MRNA()
	vectors := campaignVectors(c)
	faults := AllFaultsOfKinds(c, StuckAt0, StuckAt1, Leakage)
	want := MustSimulator(c, chip.IndependentControl(c)).EvaluateCoverage(vectors, faults)
	for round := 0; round < 20; round++ {
		sim := MustSimulator(c, chip.IndependentControl(c))
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		got, err := NewEngine(sim, 4).EvaluateCoverageCtx(ctx, vectors, faults)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: err = %v", round, err)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: completed campaign diverges: %+v want %+v", round, got, want)
		}
	}
}

func TestEngineDefaults(t *testing.T) {
	sim := indepSim(chip.IVD())
	// Empty campaign over no faults is full coverage, like the serial path,
	// on the default worker pool.
	cov := NewEngine(sim, 0).EvaluateCoverage(nil, nil)
	if !cov.Full() || cov.Total != 0 {
		t.Fatalf("empty campaign: %+v", cov)
	}
}
