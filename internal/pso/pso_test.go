package pso

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		d := v - 0.5
		s += d * d
	}
	return s
}

func TestMinimizeSphere(t *testing.T) {
	res := MinimizeCtx(context.Background(), 4, sphere, Config{Particles: 10, Iterations: 200, Seed: 1})
	if res.BestFitness > 1e-3 {
		t.Fatalf("sphere minimum not found: %v at %v", res.BestFitness, res.BestX)
	}
	for _, v := range res.BestX {
		if math.Abs(v-0.5) > 0.1 {
			t.Fatalf("best position %v far from optimum", res.BestX)
		}
	}
}

func TestTraceMonotoneNonIncreasing(t *testing.T) {
	res := MinimizeCtx(context.Background(), 6, sphere, Config{Seed: 7})
	if len(res.Trace) != 101 {
		t.Fatalf("trace length %d, want 101 (init + 100 iterations)", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1]+1e-12 {
			t.Fatalf("gbest increased at iteration %d: %v -> %v", i, res.Trace[i-1], res.Trace[i])
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := MinimizeCtx(context.Background(), 5, sphere, Config{Seed: 42})
	b := MinimizeCtx(context.Background(), 5, sphere, Config{Seed: 42})
	if a.BestFitness != b.BestFitness {
		t.Fatalf("same seed, different results: %v vs %v", a.BestFitness, b.BestFitness)
	}
	c := MinimizeCtx(context.Background(), 5, sphere, Config{Seed: 43})
	if a.BestFitness == c.BestFitness && a.BestX[0] == c.BestX[0] {
		t.Log("different seeds converged identically (possible but unusual)")
	}
}

func TestInfinityPositionsSkipped(t *testing.T) {
	// Only a narrow valid region around x=0.25; everything else invalid.
	f := func(x []float64) float64 {
		if math.Abs(x[0]-0.25) > 0.2 {
			return math.Inf(1)
		}
		return math.Abs(x[0] - 0.25)
	}
	res := MinimizeCtx(context.Background(), 1, f, Config{Particles: 20, Iterations: 150, Seed: 3})
	if math.IsInf(res.BestFitness, 1) {
		t.Fatal("PSO never found the valid region")
	}
	if res.BestFitness > 0.05 {
		t.Fatalf("poor convergence: %v", res.BestFitness)
	}
}

func TestZeroDimension(t *testing.T) {
	res := MinimizeCtx(context.Background(), 0, func(x []float64) float64 { return 7 }, Config{Seed: 1})
	if res.BestFitness != 7 || res.Evaluations != 1 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestEvaluationCount(t *testing.T) {
	cfg := Config{Particles: 5, Iterations: 10, Seed: 9}
	res := MinimizeCtx(context.Background(), 2, sphere, cfg)
	want := 5 + 5*10
	if res.Evaluations != want {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, want)
	}
}

func TestPositionsStayInUnitBox(t *testing.T) {
	seen := true
	f := func(x []float64) float64 {
		for _, v := range x {
			if v < 0 || v > 1 {
				seen = false
			}
		}
		return sphere(x)
	}
	MinimizeCtx(context.Background(), 3, f, Config{Particles: 8, Iterations: 60, Seed: 11})
	if !seen {
		t.Fatal("a particle escaped [0,1]^n")
	}
}

func TestMapToPartner(t *testing.T) {
	if MapToPartner(0, 5) != 0 {
		t.Fatal("0 -> 0")
	}
	if MapToPartner(1, 5) != 4 {
		t.Fatal("1 -> n-1")
	}
	if MapToPartner(0.5, 4) != 2 {
		t.Fatal("0.5*4 -> 2")
	}
	if MapToPartner(0.3, 0) != 0 {
		t.Fatal("n=0 -> 0")
	}
}

// Property: MapToPartner always lands in [0, n).
func TestMapToPartnerRangeProperty(t *testing.T) {
	f := func(x float64, n uint8) bool {
		if n == 0 {
			return MapToPartner(x, 0) == 0
		}
		// Clamp x into [0,1] as PSO positions are.
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		got := MapToPartner(x, int(n))
		return got >= 0 && got < int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: more iterations never hurt the final gbest for a fixed seed.
func TestMoreIterationsNotWorseProperty(t *testing.T) {
	f := func(seed int64) bool {
		short := MinimizeCtx(context.Background(), 3, sphere, Config{Particles: 6, Iterations: 20, Seed: seed})
		long := MinimizeCtx(context.Background(), 3, sphere, Config{Particles: 6, Iterations: 80, Seed: seed})
		return long.BestFitness <= short.BestFitness+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
