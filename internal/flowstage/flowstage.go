// Package flowstage turns a multi-phase solver flow into an explicit,
// instrumented stage pipeline. A Stage is a named unit of work with a
// typed artifact handoff (see Artifact); a Pipeline runs the stages in
// order, times each one, and reports per-stage statistics (solver
// iterations, cache hit rates, arbitrary counters) through an Observer.
//
// The pipeline deliberately does NOT abort between stages when the
// context expires: graceful-degradation flows (an interrupted search must
// still finalize its best-so-far result) own their cancellation semantics
// inside each stage. A stage that wants to stop the pipeline returns an
// error.
package flowstage

import (
	"context"
	"fmt"
	"time"
)

// StageStats is the per-stage breakdown a Pipeline run produces: where
// wall-clock, solver iterations and cache traffic went.
type StageStats struct {
	// Name is the stage's name.
	Name string `json:"name"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// SolverIters counts solver iteration ticks attributed to the stage
	// (PSO iterations at every level, for the DFT flow).
	SolverIters int64 `json:"solver_iterations"`
	// CacheHits and CacheMisses aggregate every cache the stage touched;
	// Counters breaks them down per cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Counters holds named stage-specific counters (ban rounds, ILP
	// nodes, chain attempts, per-cache hit/miss detail).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Err is the stage's error message when it failed, "" otherwise.
	Err string `json:"error,omitempty"`
}

// Count adds delta to the named counter.
func (s *StageStats) Count(name string, delta int64) {
	if delta == 0 {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	s.Counters[name] += delta
}

// Counter returns the named counter's value (0 when never counted).
func (s *StageStats) Counter(name string) int64 { return s.Counters[name] }

// CacheHitRate returns hits/(hits+misses), or 0 when the stage touched no
// cache.
func (s *StageStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats is the whole pipeline's breakdown.
type Stats struct {
	// Total is the pipeline's wall-clock time. Callers that wrap the
	// pipeline in additional work (input validation, result decoration)
	// may overwrite it with the full operation's duration; StageSum then
	// tells how much of it the stages account for.
	Total time.Duration `json:"total_ns"`
	// Stages lists every stage that ran, in execution order.
	Stages []StageStats `json:"stages"`
}

// StageSum returns the sum of all stage durations. For a healthy pipeline
// it accounts for nearly all of Total — the difference is inter-stage
// glue.
func (s *Stats) StageSum() time.Duration {
	var sum time.Duration
	for i := range s.Stages {
		sum += s.Stages[i].Duration
	}
	return sum
}

// Stage returns the named stage's stats, or nil when it never ran.
func (s *Stats) Stage(name string) *StageStats {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			return &s.Stages[i]
		}
	}
	return nil
}

// Stage is one named unit of a pipeline. Run receives the pipeline
// context and the stage's stats sink; it reads and writes artifacts
// through whatever state it closes over (see Artifact for the typed
// handoff helper).
type Stage struct {
	Name string
	Run  func(ctx context.Context, st *StageStats) error
}

// Artifact is a typed slot for a stage handoff: an upstream stage fills
// it with Set, a downstream stage reads it with Get. Get panics when the
// artifact was never produced — that is a pipeline wiring bug, not a
// runtime condition.
type Artifact[T any] struct {
	value T
	set   bool
}

// Set stores the artifact value.
func (a *Artifact[T]) Set(v T) { a.value, a.set = v, true }

// Get returns the artifact value; it panics when no stage has Set it.
func (a *Artifact[T]) Get() T {
	if !a.set {
		panic("flowstage: artifact read before any stage produced it")
	}
	return a.value
}

// Pipeline runs stages in order, recording per-stage stats and reporting
// progress to the Observer (nil = no observation).
type Pipeline struct {
	Stages   []Stage
	Observer Observer
}

// Run executes the stages sequentially. The first stage error stops the
// pipeline and is returned verbatim (it is not wrapped, so errors.Is/As
// on domain sentinels keep working); the returned Stats always describe
// every stage that ran, including the failing one. The context is handed
// to each stage but never checked between stages — degradation semantics
// (an interrupted search must still finalize) belong to the stages.
func (p *Pipeline) Run(ctx context.Context) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	obs := OrNop(p.Observer)
	stats := &Stats{}
	start := time.Now()
	for _, stage := range p.Stages {
		if stage.Run == nil {
			return stats, fmt.Errorf("flowstage: stage %q has no Run function", stage.Name)
		}
		obs.StageStart(stage.Name)
		st := StageStats{Name: stage.Name}
		t0 := time.Now()
		err := stage.Run(ctx, &st)
		st.Duration = time.Since(t0)
		if err != nil {
			st.Err = err.Error()
		}
		obs.StageEnd(stage.Name, st)
		stats.Stages = append(stats.Stages, st)
		if err != nil {
			stats.Total = time.Since(start)
			return stats, err
		}
	}
	stats.Total = time.Since(start)
	return stats, nil
}
