package sched

import "sync/atomic"

// Metrics aggregates scheduler-engine counters across every Engine it is
// attached to. One Metrics instance is typically shared by all engines of
// a flow run, so the flow can attribute engine traffic per stage. All
// counters are atomic; a nil *Metrics is a valid no-op receiver for the
// increment methods used on hot paths.
type Metrics struct {
	engineBuilds     atomic.Int64
	warmRuns         atomic.Int64
	fallbackReroutes atomic.Int64
	livelocks        atomic.Int64
}

// NewMetrics returns a zeroed Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) noteBuild() {
	if m == nil {
		return
	}
	m.engineBuilds.Add(1)
}

func (m *Metrics) noteRun() {
	if m == nil {
		return
	}
	m.warmRuns.Add(1)
}

func (m *Metrics) noteFallbackReroute() {
	if m == nil {
		return
	}
	m.fallbackReroutes.Add(1)
}

func (m *Metrics) noteLivelock() {
	if m == nil {
		return
	}
	m.livelocks.Add(1)
}

// MetricsSnapshot is a point-in-time copy of the counters; subtract two
// snapshots to attribute traffic to a phase.
type MetricsSnapshot struct {
	// EngineBuilds counts NewEngine precomputations; WarmRuns the
	// Engine.Run simulations they amortize over.
	EngineBuilds, WarmRuns int64
	// FallbackReroutes counts penalized re-route attempts — a transport
	// whose first path failed snapshot validation and had to search again.
	FallbackReroutes int64
	// Livelocks counts runs ended by the livelock fast-forward: a wedge
	// state repeated, so the run was proved periodic and given its
	// horizon error without simulating the remaining cycles.
	Livelocks int64
}

// Snapshot returns the current counter values. Snapshot on a nil Metrics
// returns zeros.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		EngineBuilds:     m.engineBuilds.Load(),
		WarmRuns:         m.warmRuns.Load(),
		FallbackReroutes: m.fallbackReroutes.Load(),
		Livelocks:        m.livelocks.Load(),
	}
}

// Sub returns the counter deltas since base.
func (s MetricsSnapshot) Sub(base MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		EngineBuilds:     s.EngineBuilds - base.EngineBuilds,
		WarmRuns:         s.WarmRuns - base.WarmRuns,
		FallbackReroutes: s.FallbackReroutes - base.FallbackReroutes,
		Livelocks:        s.Livelocks - base.Livelocks,
	}
}

// SetMetrics attaches a shared metrics aggregator to the engine; every
// subsequent run and reroute is counted on it. Attach before the engine
// is used concurrently (the pointer itself is unsynchronized). The
// already-performed build is counted retroactively.
func (e *Engine) SetMetrics(m *Metrics) {
	e.metrics = m
	m.noteBuild()
}
