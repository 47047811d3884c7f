// Package pso implements particle swarm optimization (Kennedy & Eberhart,
// ref. [20] of the paper), the search engine of the paper's two-level DFT
// flow (Section 4.2).
//
// Particles move through [0,1]^dim under the velocity update of eqs.
// (7)-(8):
//
//	v_i = ω·v_i + c1·rand1·(pbest_i − x_i) + c2·rand2·(gbest − x_i)
//	x_i = x_i + v_i
//
// (the paper prints the attraction terms with the sign flipped, which would
// repel particles from the best positions; we use the standard attractive
// form). Fitness is minimized; +Inf marks invalid positions, matching the
// paper's "quality ∞" for configurations that fail validation. A NaN
// fitness is treated as +Inf too — NaN compares false against everything,
// so left unclamped it would freeze a particle's attractor on an invalid
// position forever.
//
// MinimizeCtx runs the batch-synchronous engine: every random draw happens on
// the orchestrating goroutine, each generation's fitness evaluations fan
// out over Config.Workers goroutines, and pbest/gbest updates are applied
// in particle-index order after a barrier. The search trajectory is
// therefore bit-identical for any worker count. (The seed engine updated
// gbest immediately after each particle, so later particles in the same
// iteration saw it; that order is inherently serial.)
package pso

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/par"
)

// The swarm's coefficients: the inertia weight ω, the cognitive and
// social acceleration constants c1 and c2, and the velocity clamp v_max.
const (
	omega = 0.7
	c1    = 1.5
	c2    = 1.5
	vMax  = 0.5
)

// Config tunes the swarm.
type Config struct {
	// Particles is the swarm size (the paper uses 5 per level).
	Particles int
	// Iterations is the number of velocity/position updates (the paper
	// uses 100).
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// Workers sets the number of goroutines that evaluate one
	// generation's particles concurrently in MinimizeCtx.
	// 0 or 1 evaluate serially on the calling goroutine. The search
	// trajectory is identical for every value; with Workers > 1 the
	// fitness function must be safe for concurrent calls.
	Workers int
	// OnIteration, when non-nil, is called with the global-best fitness
	// after initialization (iteration 0) and after every velocity/position
	// update — the instrumentation hook the DFT flow's observer rides on.
	// The callback must not mutate swarm state; it never affects the
	// search (the RNG stream and iteration order are identical with or
	// without it). It is always invoked from the calling goroutine, after
	// the generation barrier.
	OnIteration func(iteration int, best float64)
}

func (c Config) withDefaults() Config {
	if c.Particles <= 0 {
		c.Particles = 5
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	return c
}

// Canonical returns the semantic part of the configuration in
// fully-defaulted form: search-shaping fields resolved to their
// defaults, execution-only fields (Workers, OnIteration) cleared —
// they never change the search result. Content-addressed cache keys
// (internal/artifact) hash the canonical form, so a zero config and an
// explicitly-defaulted one key identically.
func (c Config) Canonical() Config {
	c = c.withDefaults()
	c.Workers = 0
	c.OnIteration = nil
	return c
}

// Result reports the best position found.
type Result struct {
	BestX       []float64
	BestFitness float64
	// Trace holds the global-best fitness after every iteration (entry 0
	// is after initialization); it reproduces the convergence curves of
	// the paper's Fig. 9.
	Trace []float64
	// Evaluations counts fitness calls.
	Evaluations int
	// Interrupted reports that the context expired before the configured
	// iterations completed; BestX/BestFitness still hold the best position
	// found so far (graceful degradation, never a lost search).
	Interrupted bool
}

// MinimizeCtx runs batch-synchronous PSO over [0,1]^dim. fitness returns
// the quality of a position (lower is better; +Inf for invalid; NaN is
// treated as +Inf). The search is fully deterministic for a fixed
// Config.Seed and bit-identical for any Config.Workers value.
//
// The context (nil never cancels) is checked between particle
// evaluations, and on expiry the best position found so far is returned
// with Interrupted set. At least one particle is always evaluated, so
// BestX is usable even under an already-cancelled context.
//
// Each generation runs in three phases: velocity/position updates for the
// whole swarm on the calling goroutine (one RNG stream, one draw order),
// fitness evaluation of the generation over Config.Workers goroutines, and
// pbest/gbest updates applied in particle-index order after all
// evaluations return. Particle i's update therefore always sees the
// global best of the previous generation, regardless of which worker
// evaluated which particle first.
func MinimizeCtx(ctx context.Context, dim int, fitness func(x []float64) float64, cfg Config) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if dim <= 0 {
		// Degenerate: a single empty position.
		f := clampNaN(fitness(nil))
		if cfg.OnIteration != nil {
			cfg.OnIteration(0, f)
		}
		return Result{BestX: nil, BestFitness: f, Trace: fill(cfg.Iterations+1, f), Evaluations: 1}
	}

	type particle struct {
		x, v, pbestX []float64
		pbestF       float64
	}
	swarm := make([]particle, cfg.Particles)
	for i := range swarm {
		p := particle{
			x:      make([]float64, dim),
			v:      make([]float64, dim),
			pbestF: math.Inf(1),
		}
		for d := 0; d < dim; d++ {
			p.x[d] = rng.Float64()
			p.v[d] = (rng.Float64()*2 - 1) * vMax
		}
		swarm[i] = p
	}
	gbestX := make([]float64, dim)
	gbestF := math.Inf(1)
	evals := 0
	fs := make([]float64, len(swarm))
	done := make([]bool, len(swarm))

	// evalGen evaluates the current generation into fs over cfg.Workers
	// goroutines (serially at 0 or 1) and reports whether any particle
	// was skipped because the context expired. During initialization
	// (init) the first particle is always evaluated so the result carries
	// a real position.
	evalGen := func(init bool) bool {
		for i := range done {
			done[i] = false
		}
		// The error only repeats ctx.Err(): a skipped particle keeps
		// done[i] false, which is what evalGen reports.
		_ = par.For(ctx, cfg.Workers, len(swarm), func(i int) {
			fs[i] = clampNaN(fitness(swarm[i].x))
			done[i] = true
		})
		if init && !done[0] {
			fs[0] = clampNaN(fitness(swarm[0].x))
			done[0] = true
		}
		interrupted := false
		for i := range done {
			if done[i] {
				evals++
			} else {
				interrupted = true
			}
		}
		return interrupted
	}

	// applyGen folds the generation's fitnesses into pbest/gbest in
	// particle-index order — the barrier that makes the trajectory
	// worker-count independent. Evaluated particles are applied even when
	// the generation was interrupted, so the result is never worse than
	// the best position actually seen.
	applyGen := func(init bool) {
		for i := range swarm {
			if !done[i] {
				continue
			}
			p := &swarm[i]
			f := fs[i]
			if init {
				p.pbestX = append([]float64(nil), p.x...)
				p.pbestF = f
			} else if f < p.pbestF {
				p.pbestF = f
				copy(p.pbestX, p.x)
			}
			if f < gbestF {
				gbestF = f
				copy(gbestX, p.x)
			}
		}
	}

	interrupted := evalGen(true)
	applyGen(true)
	trace := make([]float64, 0, cfg.Iterations+1)
	trace = append(trace, gbestF)
	if cfg.OnIteration != nil {
		cfg.OnIteration(0, gbestF)
	}

	for it := 0; it < cfg.Iterations && !interrupted; it++ {
		for i := range swarm {
			p := &swarm[i]
			for d := 0; d < dim; d++ {
				r1, r2 := rng.Float64(), rng.Float64()
				p.v[d] = omega*p.v[d] +
					c1*r1*(p.pbestX[d]-p.x[d]) +
					c2*r2*(gbestX[d]-p.x[d])
				if p.v[d] > vMax {
					p.v[d] = vMax
				}
				if p.v[d] < -vMax {
					p.v[d] = -vMax
				}
				p.x[d] += p.v[d]
				if p.x[d] < 0 {
					p.x[d] = 0
					p.v[d] = -p.v[d] * 0.5
				}
				if p.x[d] > 1 {
					p.x[d] = 1
					p.v[d] = -p.v[d] * 0.5
				}
			}
		}
		interrupted = evalGen(false)
		applyGen(false)
		trace = append(trace, gbestF)
		if cfg.OnIteration != nil {
			cfg.OnIteration(it+1, gbestF)
		}
	}
	return Result{BestX: gbestX, BestFitness: gbestF, Trace: trace, Evaluations: evals, Interrupted: interrupted}
}

// clampNaN maps a NaN fitness to +Inf so it can never win a pbest/gbest
// comparison (f < NaN is false for every f, which would otherwise freeze
// the particle's attractor on the invalid position).
func clampNaN(f float64) float64 {
	if math.IsNaN(f) {
		return math.Inf(1)
	}
	return f
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// MapToPartner converts a continuous position component in [0,1] to a
// categorical choice in [0,n): the inner PSO uses this to map positions to
// valve-sharing partners (eq. (10)'s X^s).
func MapToPartner(x float64, n int) int {
	if n <= 0 {
		return 0
	}
	i := int(x * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}
