package flowstage

import (
	"fmt"
	"sync"
	"time"
)

// Observer receives pipeline progress events. Implementations must be
// cheap and must not block: events fire from solver hot loops. During
// search stages events may be emitted from PSO worker goroutines, but
// the flow serializes every call behind one mutex — an Observer never
// sees two calls running concurrently and never sees an event for a
// stage after that stage's StageEnd.
//
// The event vocabulary mirrors what the DFT flow can say about itself:
//
//   - StageStart/StageEnd bracket each pipeline stage; StageEnd carries
//     the stage's final stats (duration, iterations, cache traffic).
//   - SolverTick fires once per search iteration (outer and inner PSO)
//     with the global-best fitness so far.
//   - ChainAttempt fires once per degradation-chain tier attempt
//     (exact → heuristic → repair) with the attempt's outcome.
//   - ILPAttempt fires once per ILP |P|-iteration with branch-and-bound
//     node and lazy-cut counts. The other statistics of those solves
//     (requeues, LP pivots) arrive as ilp_* stage counters in the
//     StageStats passed to StageEnd.
//   - CacheDelta fires at stage end, once per cache the stage touched.
type Observer interface {
	StageStart(stage string)
	StageEnd(stage string, stats StageStats)
	SolverTick(stage string, iteration int, best float64)
	ChainAttempt(stage string, tier int, tierName string, reason string, elapsed time.Duration)
	ILPAttempt(stage string, paths, nodes, lazyCuts int)
	CacheDelta(stage string, cache string, hits, misses int64)
}

// Nop is the no-op Observer.
type Nop struct{}

func (Nop) StageStart(string)                                       {}
func (Nop) StageEnd(string, StageStats)                             {}
func (Nop) SolverTick(string, int, float64)                         {}
func (Nop) ChainAttempt(string, int, string, string, time.Duration) {}
func (Nop) ILPAttempt(string, int, int, int)                        {}
func (Nop) CacheDelta(string, string, int64, int64)                 {}

// OrNop returns o, or a Nop observer when o is nil, so callers never need
// a nil check before emitting an event.
func OrNop(o Observer) Observer {
	if o == nil {
		return Nop{}
	}
	return o
}

// Recorder is an Observer that records a compact textual event log, for
// tests (event-ordering assertions) and debugging. Safe for concurrent
// use.
type Recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *Recorder) record(e string) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the log so far.
func (r *Recorder) Events() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func (r *Recorder) StageStart(stage string) { r.record("start:" + stage) }

func (r *Recorder) StageEnd(stage string, stats StageStats) {
	r.record("end:" + stage)
}

func (r *Recorder) SolverTick(stage string, iteration int, best float64) {
	r.record(fmt.Sprintf("tick:%s:%d", stage, iteration))
}

func (r *Recorder) ChainAttempt(stage string, tier int, tierName string, reason string, elapsed time.Duration) {
	r.record(fmt.Sprintf("chain:%s:%d:%s:%s", stage, tier, tierName, reason))
}

func (r *Recorder) ILPAttempt(stage string, paths, nodes, lazyCuts int) {
	r.record(fmt.Sprintf("ilp:%s:p%d:n%d", stage, paths, nodes))
}

func (r *Recorder) CacheDelta(stage string, cache string, hits, misses int64) {
	r.record(fmt.Sprintf("cache:%s:%s:%d/%d", stage, cache, hits, misses))
}
