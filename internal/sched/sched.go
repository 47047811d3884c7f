// Package sched schedules bioassay sequencing graphs onto biochips. It
// implements the execution-time model the paper's PSO fitness function
// needs: list scheduling with device binding, shortest-path fluid transport
// over the channel network, distributed channel storage (the substrate of
// ref. [6]), and — crucially — per-snapshot validation of valve states
// under control sharing (Section 4.1): a transport may only start if the
// valves it must open and the valves that must stay closed around occupied
// resources can be actuated simultaneously, which sharing can make
// impossible.
//
// The scheduler is deterministic: identical inputs produce identical
// schedules, which the PSO relies on for reproducible fitness values.
package sched

import (
	"context"

	"repro/internal/assay"
	"repro/internal/chip"
)

// Params tunes the execution model.
type Params struct {
	// TransportTimePerEdge is the seconds a fluid sample needs to traverse
	// one channel edge (default 2). An explicit zero — instantaneous
	// transport in unit models — requires HasTransportTimePerEdge, because
	// the zero value alone is indistinguishable from "unset".
	TransportTimePerEdge int
	// HasTransportTimePerEdge marks TransportTimePerEdge as deliberately
	// set, so zero means zero instead of the default.
	HasTransportTimePerEdge bool
	// MaxTime is the simulation horizon in seconds (default 24h). A run
	// fails with "exceeded time horizon" at the first event time past
	// MaxTime at which operations remain; a run whose last operation
	// completes past MaxTime still succeeds. Valve sharing can block
	// transports for good. A run left with nothing to start fails at once
	// as a deadlock. A run whose emergency storage only shuffles parked
	// products in a cycle is proved periodic and gets its horizon error,
	// with the same t and progress, without simulating up to MaxTime. An
	// explicit zero horizon requires HasMaxTime.
	MaxTime int
	// HasMaxTime marks MaxTime as deliberately set, so zero means zero
	// instead of the default.
	HasMaxTime bool
	// MaxReroutes bounds the alternative paths tried per transport per
	// attempt when conflicts arise (default 6).
	MaxReroutes int
	// WashTimePerEdge, when positive, models cross-contamination washing
	// (the concern of the paper's ref. [11]): a transport that reuses a
	// channel segment last wetted by a DIFFERENT fluid first flushes it,
	// paying this many extra seconds per contaminated segment. 0 disables
	// the wash model (the default, matching the paper's evaluation).
	WashTimePerEdge int

	// BanClosed lists valves to treat as stuck closed (stuck-at-0, or a
	// blocked channel): the guarded segment never conducts, so transports
	// cannot route through it and fluid cannot be stored in it. This is
	// the test-around-fault reconfiguration substrate — located faults are
	// banned and the assay rescheduled around them.
	BanClosed []int
	// BanOpen lists valves to treat as stuck open (stuck-at-1, or a
	// leaking membrane): the guarded segment always conducts and can never
	// be sealed. Fluid cannot be stored in it, and — unless
	// RelaxStuckOpenSeal is set — any snapshot that needs the segment
	// sealed (a transport or stored product adjacent to it) is rejected as
	// a contamination hazard.
	BanOpen []int
	// RelaxStuckOpenSeal accepts snapshots that require a stuck-open valve
	// sealed, trading contamination risk for schedulability — the
	// last-resort tier of the reconfiguration chain. It never relaxes
	// BanClosed routing.
	RelaxStuckOpenSeal bool
}

// withDefaults resolves the zero-value ambiguity the Has* flags exist for:
// a field defaults only when it is zero AND unflagged (or negative, which
// is never legal). The returned Params has both flags set, so resolving is
// idempotent.
func (p Params) withDefaults() Params {
	if p.TransportTimePerEdge < 0 || (p.TransportTimePerEdge == 0 && !p.HasTransportTimePerEdge) {
		p.TransportTimePerEdge = 2
	}
	p.HasTransportTimePerEdge = true
	if p.MaxTime < 0 || (p.MaxTime == 0 && !p.HasMaxTime) {
		p.MaxTime = 24 * 3600
	}
	p.HasMaxTime = true
	if p.MaxReroutes <= 0 {
		p.MaxReroutes = 6
	}
	return p
}

// Canonical returns the parameters in fully-defaulted form: every
// defaultable field resolved and every Has* flag set. Two Params that
// schedule identically always canonicalize identically, which is what
// content-addressed cache keys (internal/artifact) hash.
func (p Params) Canonical() Params { return p.withDefaults() }

// OpRecord reports when and where an operation executed.
type OpRecord struct {
	Op     int
	Device int // device ID, or port ID for dispense ops
	IsPort bool
	Start  int
	Finish int
}

// TransportRecord reports one fluid movement.
type TransportRecord struct {
	ProducerOp int
	ConsumerOp int // -1 for storage moves
	Edges      []int
	Start      int
	Finish     int
	// WashedEdges counts the contaminated segments flushed before this
	// transport (0 unless Params.WashTimePerEdge is set).
	WashedEdges int
}

// Schedule is the result of a successful run.
type Schedule struct {
	ExecutionTime int
	Ops           []OpRecord
	Transports    []TransportRecord
}

// Run schedules the assay on the chip under the control assignment and
// returns the schedule, or an error when the assay cannot complete (e.g.
// valve sharing permanently blocks a required transport).
//
// The Run* functions route through a freshly built Engine (a "cold" run);
// callers that schedule one (chip, assay, ban-set) under many control
// assignments should build the Engine once and call its Run methods
// instead — the schedules are bit-identical either way.
func Run(c *chip.Chip, ctrl *chip.Control, g *assay.Graph, params Params) (*Schedule, error) {
	sch, _, err := RunProgress(c, ctrl, g, params)
	return sch, err
}

// RunCtx is Run with cooperative cancellation (see RunProgressCtx).
func RunCtx(ctx context.Context, c *chip.Chip, ctrl *chip.Control, g *assay.Graph, params Params) (*Schedule, error) {
	sch, _, err := RunProgressCtx(ctx, c, ctrl, g, params)
	return sch, err
}

// RunProgress is Run that also reports how many operations completed; on
// failure the count tells how far the schedule got before wedging, which
// the PSO uses to grade nearly-schedulable sharing schemes.
func RunProgress(c *chip.Chip, ctrl *chip.Control, g *assay.Graph, params Params) (*Schedule, int, error) {
	return RunProgressCtx(context.Background(), c, ctrl, g, params)
}

// RunProgressCtx is RunProgress with cooperative cancellation: the context
// is polled at every simulated event time and, on expiry, the run stops
// with the context's error and the operations-completed count reached so
// far.
func RunProgressCtx(ctx context.Context, c *chip.Chip, ctrl *chip.Control, g *assay.Graph, params Params) (*Schedule, int, error) {
	eng, err := NewEngine(c, g, params)
	if err != nil {
		return nil, 0, err
	}
	return eng.RunProgressCtx(ctx, ctrl, params)
}

// ExecutionTime is a convenience wrapper returning only the makespan; it
// reports ok=false for unschedulable combinations (the PSO maps those to
// quality ∞).
func ExecutionTime(c *chip.Chip, ctrl *chip.Control, g *assay.Graph, params Params) (int, bool) {
	sch, err := Run(c, ctrl, g, params)
	if err != nil {
		return 0, false
	}
	return sch.ExecutionTime, true
}

// --- locations ---------------------------------------------------------------

type locKind int

const (
	atNode locKind = iota // device or port grid node
	atEdge                // stored in a channel segment
)

type location struct {
	kind locKind
	id   int // node ID or edge ID
}

// --- op lifecycle -------------------------------------------------------------

type opPhase int

const (
	phaseWaitPreds opPhase = iota
	phaseWaitDevice
	phaseWaitDelivery
	phaseRunning
	phaseDone
)

type opCtl struct {
	phase    opPhase
	device   int // reserved device ID (or port ID for dispense)
	isPort   bool
	start    int
	finish   int
	pending  int // deliveries still missing
	priority int // critical-path priority (higher runs first)
}

type productCtl struct {
	exists         bool
	loc            location
	totalConsumers int
	started        int  // aliquot transports departed
	arrived        int  // aliquots delivered
	holdsDevice    int  // device ID still blocked by this product (-1 none)
	holdsPort      int  // port ID still blocked (-1 none)
	moving         bool // storage move in flight
}
