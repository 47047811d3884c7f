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
	base := MinimizeCtx(context.Background(), 4, sphere, Config{Particles: 7, Iterations: 60, Seed: 5, Workers: 1})
	for _, w := range []int{0, 2, 4, 8} {
		res := MinimizeCtx(context.Background(), 4, sphere, Config{Particles: 7, Iterations: 60, Seed: 5, Workers: w})
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
	res := MinimizeCtx(context.Background(), 3, fit, cfg)
	want := 6 + 6*15
	if res.Evaluations != want {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, want)
	}
	if got := atomic.LoadInt64(&calls); got != int64(want) {
		t.Fatalf("fitness called %d times, want %d", got, want)
	}
}

// A NaN fitness must clamp to +Inf instead of freezing a particle's
// attractor (f < NaN is false for every f).
func TestNaNFitnessClamped(t *testing.T) {
	// Everywhere-NaN: the result must be +Inf, never NaN.
	res := MinimizeCtx(context.Background(), 2, func(x []float64) float64 { return math.NaN() }, Config{Particles: 5, Iterations: 10, Seed: 1})
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
	res = MinimizeCtx(context.Background(), 1, f, Config{Particles: 8, Iterations: 100, Seed: 6})
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
