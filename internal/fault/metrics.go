package fault

import "sync/atomic"

// Metrics aggregates fault-simulation counters across every Simulator and
// Engine it is attached to. One Metrics instance is typically shared by
// all simulators of a flow run, so the flow can report its state-memo hit
// rate per stage. All counters are atomic; a nil *Metrics is a valid
// no-op receiver for the increment methods used on hot paths.
type Metrics struct {
	memoHits     atomic.Int64
	memoMisses   atomic.Int64
	stateEvals   atomic.Int64
	campaigns    atomic.Int64
	faultScans   atomic.Int64
	screenSkips  atomic.Int64
	reachChecks  atomic.Int64
	bridgeChecks atomic.Int64
}

// NewMetrics returns a zeroed Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) noteMemo(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.memoHits.Add(1)
	} else {
		m.memoMisses.Add(1)
	}
}

// noteState counts one valve-state analysis (a state-memo miss or a Probe
// call).
func (m *Metrics) noteState() {
	if m == nil {
		return
	}
	m.stateEvals.Add(1)
}

func (m *Metrics) noteCampaign(faults int) {
	if m == nil {
		return
	}
	m.campaigns.Add(1)
	m.faultScans.Add(int64(faults))
}

// ruleTally counts (vector, fault) verdicts settled by each fast-path rule
// (see fastpath.go) in a caller-local variable, so a campaign publishes
// them with one atomic add per rule, not one per pair.
type ruleTally struct{ screens, reaches, bridges int64 }

// addRules publishes a tally.
func (m *Metrics) addRules(t ruleTally) {
	if m == nil {
		return
	}
	if t.screens != 0 {
		m.screenSkips.Add(t.screens)
	}
	if t.reaches != 0 {
		m.reachChecks.Add(t.reaches)
	}
	if t.bridges != 0 {
		m.bridgeChecks.Add(t.bridges)
	}
}

// MetricsSnapshot is a point-in-time copy of the counters; subtract two
// snapshots to attribute traffic to a phase.
type MetricsSnapshot struct {
	// MemoHits and MemoMisses count state-memo lookups across all
	// attached simulators: one per query, and one per vector of a
	// campaign or detection matrix.
	MemoHits, MemoMisses int64
	// StateEvals counts valve-state analyses: one per distinct (kind,
	// valves) a simulator sees, so vectors that differ only in sources
	// and meters share one, plus one per Probe call, which keeps none.
	StateEvals int64
	// Campaigns counts EvaluateCoverage campaigns; FaultScans the faults
	// those campaigns examined.
	Campaigns, FaultScans int64
	// ScreenSkips counts (vector, fault) verdicts settled by the saturation
	// screen; ReachChecks those settled by the single-edge reach rule;
	// BridgeChecks those settled by the bridge rule. All three replace a
	// full faulty-chip simulation. A campaign asks each usable vector
	// only the faults it can reveal, which the screen never settles, so
	// only Detects, Certifies, Cover, Probe and detection matrices count
	// screens.
	ScreenSkips, ReachChecks, BridgeChecks int64
}

// Snapshot returns the current counter values. Snapshot on a nil Metrics
// returns zeros.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		MemoHits:     m.memoHits.Load(),
		MemoMisses:   m.memoMisses.Load(),
		StateEvals:   m.stateEvals.Load(),
		Campaigns:    m.campaigns.Load(),
		FaultScans:   m.faultScans.Load(),
		ScreenSkips:  m.screenSkips.Load(),
		ReachChecks:  m.reachChecks.Load(),
		BridgeChecks: m.bridgeChecks.Load(),
	}
}

// Sub returns the counter deltas since base.
func (s MetricsSnapshot) Sub(base MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		MemoHits:     s.MemoHits - base.MemoHits,
		MemoMisses:   s.MemoMisses - base.MemoMisses,
		StateEvals:   s.StateEvals - base.StateEvals,
		Campaigns:    s.Campaigns - base.Campaigns,
		FaultScans:   s.FaultScans - base.FaultScans,
		ScreenSkips:  s.ScreenSkips - base.ScreenSkips,
		ReachChecks:  s.ReachChecks - base.ReachChecks,
		BridgeChecks: s.BridgeChecks - base.BridgeChecks,
	}
}

// SetMetrics attaches a shared metrics aggregator to the simulator; every
// subsequent state-memo lookup is counted on it. Attach before the
// simulator is used concurrently (the pointer itself is unsynchronized).
func (s *Simulator) SetMetrics(m *Metrics) { s.metrics = m }
