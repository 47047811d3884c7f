package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/lp"
)

// busyLP solves a small dense LP over and over, so nearly every CPU
// sample lands inside package lp.
func busyLP(d time.Duration) {
	const n = 24
	for end := time.Now().Add(d); time.Now().Before(end); {
		p := lp.NewProblem(lp.Maximize)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar(float64(1+i%5), 0, math.Inf(1), "")
		}
		for r := 0; r < n; r++ {
			terms := make([]lp.Term, n)
			for i, v := range vars {
				terms[i] = lp.T(v, float64(1+(r*7+i*3)%11))
			}
			p.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(50 + r)})
		}
		if _, err := p.Solve(nil); err != nil {
			panic(err)
		}
	}
}

func TestProfileAttributesBusyLoopToItsPackage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	// The profiler samples CPU time, so burn a fixed amount of it however
	// long a busy host makes that take.
	cpu0, _ := rusage()
	for cpu := cpu0; cpu-cpu0 < 500*time.Millisecond; cpu, _ = rusage() {
		busyLP(50 * time.Millisecond)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l layerCPU
	l.attribute(samples)
	if l.Total < 10 {
		t.Fatalf("only %d samples decoded", l.Total)
	}
	// The loop's allocations make GC work, which is rightly charged to
	// gc; every sample in program code must be charged to lp.
	if lp, gc := l.Samples["lp"], l.Samples["gc"]; lp != l.Total-gc || lp < 10 {
		t.Fatalf("%d samples: %v, want all but gc's in lp, at least 10", l.Total, l.Samples)
	}
}

func TestAttributionRules(t *testing.T) {
	samples := []profileSample{
		// Substrate frames are charged to their caller.
		{frames: []string{"repro/internal/graphalg.(*Graph).WeightedShortestPathScratch", "repro/internal/sched.(*runState).run", "repro/internal/core.(*flow).runSched"}, count: 3},
		// Runtime frames are skipped; generic instantiations keep their package.
		{frames: []string{"runtime.mallocgc", "repro/internal/artifact.(*Cache[go.shape.*uint8]).Do", "repro/internal/core.(*Cache).lookup"}, count: 2},
		// No program frame at all: garbage collection and the runtime.
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 4},
		// Only substrate and pipeline frames: nothing to charge.
		{frames: []string{"repro/internal/chip.(*Chip).Clone", "repro/internal/flowstage.(*Pipeline).Run"}, count: 1},
	}
	var l layerCPU
	l.attribute(samples)
	want := map[string]int64{"sched": 3, "artifact": 2, "gc": 4, "other": 1}
	for layer, n := range want {
		if l.Samples[layer] != n {
			t.Errorf("layer %s: %d samples, want %d (all: %v)", layer, l.Samples[layer], n, l.Samples)
		}
	}
	if l.Substrate != 4 || l.Total != 10 {
		t.Errorf("substrate %d total %d, want 4 and 10", l.Substrate, l.Total)
	}
}
