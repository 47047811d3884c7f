package pso

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
)

// The batch-synchronous trajectory must be bit-identical for any worker
// count — the property every level above (core flow, golden fixtures)
// relies on.
func TestMinimizeWorkerCountInvariance(t *testing.T) {
	base := Minimize(4, sphere, Config{Particles: 7, Iterations: 60, Seed: 5, Workers: 1})
	for _, w := range []int{0, 2, 4, 8} {
		res := Minimize(4, sphere, Config{Particles: 7, Iterations: 60, Seed: 5, Workers: w})
		if res.BestFitness != base.BestFitness || res.Evaluations != base.Evaluations {
			t.Fatalf("workers=%d: fitness %v (%d evals), want %v (%d evals)",
				w, res.BestFitness, res.Evaluations, base.BestFitness, base.Evaluations)
		}
		for d := range base.BestX {
			if res.BestX[d] != base.BestX[d] {
				t.Fatalf("workers=%d: BestX[%d] = %v, want %v", w, d, res.BestX[d], base.BestX[d])
			}
		}
		if len(res.Trace) != len(base.Trace) {
			t.Fatalf("workers=%d: trace length %d, want %d", w, len(res.Trace), len(base.Trace))
		}
		for i := range base.Trace {
			if res.Trace[i] != base.Trace[i] {
				t.Fatalf("workers=%d: trace[%d] = %v, want %v", w, i, res.Trace[i], base.Trace[i])
			}
		}
	}
}

// Parallel evaluation must call fitness exactly Evaluations times and run
// concurrently without losing results (the fitness here is concurrency-safe
// by construction, as the Workers > 1 contract requires).
func TestMinimizeParallelEvaluationCount(t *testing.T) {
	var calls int64
	fit := func(x []float64) float64 {
		atomic.AddInt64(&calls, 1)
		return sphere(x)
	}
	cfg := Config{Particles: 6, Iterations: 15, Seed: 2, Workers: 4}
	res := Minimize(3, fit, cfg)
	want := 6 + 6*15
	if res.Evaluations != want {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, want)
	}
	if got := atomic.LoadInt64(&calls); got != int64(want) {
		t.Fatalf("fitness called %d times, want %d", got, want)
	}
}

// An explicit zero coefficient must mean zero, not "use the default"
// (the pressure.HasLeakConductance convention).
func TestConfigExplicitZeroCoefficients(t *testing.T) {
	// HasVMax with VMax 0 pins every particle to its initial position:
	// velocities are clamped into [-0, 0], so the trace is flat.
	res := Minimize(3, sphere, Config{Particles: 5, Iterations: 20, Seed: 4, VMax: 0, HasVMax: true})
	for i, v := range res.Trace {
		if v != res.Trace[0] {
			t.Fatalf("trace[%d] = %v under VMax=0, want constant %v (particles must not move)", i, v, res.Trace[0])
		}
	}

	// ω=0 (no inertia) must be configurable and behave differently from
	// the ω=0.7 default on the same seed.
	zero := Minimize(3, sphere, Config{Particles: 5, Iterations: 30, Seed: 4, Omega: 0, HasOmega: true})
	def := Minimize(3, sphere, Config{Particles: 5, Iterations: 30, Seed: 4})
	same := zero.BestFitness == def.BestFitness
	for i := range zero.Trace {
		if zero.Trace[i] != def.Trace[i] {
			same = false
		}
	}
	if same {
		t.Fatal("HasOmega+Omega=0 produced the identical trajectory to the 0.7 default — the flag is ignored")
	}

	// Without the flag a zero field still selects the default
	// (backwards compatibility).
	implicit := Minimize(3, sphere, Config{Particles: 5, Iterations: 30, Seed: 4, Omega: 0})
	if implicit.BestFitness != def.BestFitness {
		t.Fatalf("Omega=0 without HasOmega: fitness %v, want default-behavior %v", implicit.BestFitness, def.BestFitness)
	}

	// C1/C2 explicit zeros: purely social and purely cognitive swarms
	// must each differ from the default.
	c1zero := Minimize(3, sphere, Config{Particles: 5, Iterations: 30, Seed: 4, C1: 0, HasC1: true})
	c2zero := Minimize(3, sphere, Config{Particles: 5, Iterations: 30, Seed: 4, C2: 0, HasC2: true})
	if c1zero.BestFitness == def.BestFitness && c2zero.BestFitness == def.BestFitness {
		t.Fatal("HasC1/HasC2 zero coefficients did not change the trajectory")
	}
}

// A NaN fitness must clamp to +Inf instead of freezing a particle's
// attractor (f < NaN is false for every f).
func TestNaNFitnessClamped(t *testing.T) {
	// Everywhere-NaN: the result must be +Inf, never NaN.
	res := Minimize(2, func(x []float64) float64 { return math.NaN() }, Config{Particles: 5, Iterations: 10, Seed: 1})
	if !math.IsInf(res.BestFitness, 1) {
		t.Fatalf("all-NaN fitness gave BestFitness %v, want +Inf", res.BestFitness)
	}
	for i, v := range res.Trace {
		if math.IsNaN(v) {
			t.Fatalf("trace[%d] is NaN", i)
		}
	}

	// NaN region next to a valid region: the swarm must escape the
	// poison and converge — with the pre-fix behavior a particle
	// initialized in the NaN region kept pbestF = NaN forever.
	f := func(x []float64) float64 {
		if x[0] < 0.5 {
			return math.NaN()
		}
		return math.Abs(x[0] - 0.75)
	}
	res = Minimize(1, f, Config{Particles: 8, Iterations: 100, Seed: 6})
	if math.IsNaN(res.BestFitness) || math.IsInf(res.BestFitness, 1) {
		t.Fatalf("swarm never escaped the NaN region: %v", res.BestFitness)
	}
	if res.BestFitness > 0.05 {
		t.Fatalf("poor convergence beside a NaN region: %v", res.BestFitness)
	}
}

// Cancellation semantics of the batch engine under a worker pool: the
// result reflects every evaluation that completed, and Interrupted is set.
func TestMinimizeCtxParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals int64
	fit := func(x []float64) float64 {
		if atomic.AddInt64(&evals, 1) == 20 {
			cancel()
		}
		return sphere(x)
	}
	res := MinimizeCtx(ctx, 3, fit, Config{Particles: 6, Iterations: 100, Seed: 8, Workers: 4})
	if !res.Interrupted {
		t.Fatal("Interrupted = false after mid-run cancel")
	}
	full := 6 + 6*100
	if res.Evaluations >= full {
		t.Fatalf("Evaluations = %d, want an early stop (< %d)", res.Evaluations, full)
	}
	if math.IsInf(res.BestFitness, 1) || math.IsNaN(res.BestFitness) {
		t.Fatalf("BestFitness = %v, want a real evaluated value", res.BestFitness)
	}
}
