package sched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/graphalg"
)

// runState is one Engine.Run's control-dependent simulation state. Every
// buffer is pooled and reused, the per-edge product index (holderOf)
// answers which product a segment stores without a product scan, and
// tasks and active transports are value slices, so a warm run allocates
// little beyond its returned schedule.
type runState struct {
	eng    *Engine
	ctrl   *chip.Control
	params Params
	ctx    context.Context

	ops      []opCtl
	products []productCtl
	tasks    []engTask
	active   []engActive

	deviceBusy []bool
	portBusy   []bool
	edgeBusy   []bool
	lastFluid  []int

	// holderOf[e] is the product stored in segment e (-1 none), kept in
	// lockstep with products[i].exists/loc.
	holderOf []int

	// sharedValve[v] reports whether v's control line drives another valve
	// under this run's assignment, so the parking policy needs no scan of
	// the control lines.
	sharedValve []bool
	lineSize    []int

	doneOps int
	now     int

	recOps        []OpRecord
	recTransports []TransportRecord

	// Routing scratch (routing.go): weight is findPath's dynamic weight
	// table.
	path     graphalg.PathScratch
	weight   []float64
	pathBest []int
	pathOut  []int
	penalty  []float64
	penTouch []int

	// Snapshot-validation scratch (snapshot.go): epoch-stamped demand sets
	// over valves, per-member own-edge marks, product-on-the-move marks and
	// per-line demand marks.
	reqOpenEp   []int
	reqClosedEp []int
	touchedEp   []int
	touched     []int
	ownEp       []int
	prodMoveEp  []int
	lineOpenEp  []int
	snapEpoch   int
	memberEp    int

	// Storage scratch (storage.go). dist serves pickParkingEdge's distance
	// field; dist2 the nested connectivity BFS (both may be live at once).
	bfs     graphalg.Scratch
	dist    []int
	dist2   []int
	evacBuf []int

	// Event-loop scratch.
	phaseBuf []int

	// Livelock detector (livelock.go): the wedge states recorded since the
	// op phases last changed, indexed by hash, their summed op phase, and
	// the event times logged since the first of them.
	wedgeSeen   map[uint64]int
	wedges      []wedgeRec
	wedgeWords  []int
	wedgePhases int
	events      []int
}

// engTask is one pending fluid movement; tasks are addressed by index into
// runState.tasks.
type engTask struct {
	producer int
	consumer int // -1 for storage moves
	started  bool
	done     bool
}

// engActive is one transport in flight, naming its task by index.
type engActive struct {
	taskIdx int
	edges   []int
	finish  int
	to      location
}

func newRunState(e *Engine) *runState {
	nNodes := e.grid.NumNodes()
	return &runState{
		eng:         e,
		ops:         make([]opCtl, e.numOps),
		products:    make([]productCtl, e.numOps),
		deviceBusy:  make([]bool, len(e.chip.Devices)),
		portBusy:    make([]bool, len(e.chip.Ports)),
		edgeBusy:    make([]bool, e.numEdges),
		lastFluid:   make([]int, e.numEdges),
		holderOf:    make([]int, e.numEdges),
		sharedValve: make([]bool, e.numValves),
		penalty:     make([]float64, e.numEdges),
		weight:      make([]float64, e.numEdges),
		reqOpenEp:   make([]int, e.numValves),
		reqClosedEp: make([]int, e.numValves),
		touchedEp:   make([]int, e.numValves),
		ownEp:       make([]int, e.numEdges),
		prodMoveEp:  make([]int, e.numOps),
		dist:        make([]int, nNodes),
		wedgeSeen:   make(map[uint64]int),
	}
}

// reset rebinds the pooled state to one run. Everything cleared here is
// O(ops + edges + valves) — no allocation once the buffers exist.
func (rs *runState) reset(ctrl *chip.Control, p Params, ctx context.Context) {
	e := rs.eng
	rs.ctrl, rs.params, rs.ctx = ctrl, p, ctx
	for i := range rs.ops {
		rs.ops[i] = opCtl{phase: phaseWaitPreds, device: -1, priority: e.priority[i]}
		rs.products[i] = productCtl{holdsDevice: -1, holdsPort: -1}
	}
	rs.tasks = rs.tasks[:0]
	rs.active = rs.active[:0]
	for i := range rs.deviceBusy {
		rs.deviceBusy[i] = false
	}
	for i := range rs.portBusy {
		rs.portBusy[i] = false
	}
	for i := range rs.edgeBusy {
		rs.edgeBusy[i] = false
		rs.lastFluid[i] = -1
		rs.holderOf[i] = -1
		rs.penalty[i] = 0
	}
	rs.penTouch = rs.penTouch[:0]
	rs.doneOps, rs.now = 0, 0
	rs.recOps = rs.recOps[:0]
	rs.recTransports = rs.recTransports[:0]
	rs.clearWedges()
	rs.wedgePhases = -1

	// Per-run control-derived state: line sizes → shared-valve flags.
	nLines := ctrl.NumLines()
	if cap(rs.lineSize) < nLines {
		rs.lineSize = make([]int, nLines)
		rs.lineOpenEp = make([]int, nLines)
	}
	rs.lineSize = rs.lineSize[:nLines]
	rs.lineOpenEp = rs.lineOpenEp[:nLines]
	for i := range rs.lineSize {
		rs.lineSize[i] = 0
		rs.lineOpenEp[i] = 0
	}
	for v := 0; v < e.numValves; v++ {
		rs.lineSize[ctrl.LineOf(v)]++
	}
	for v := 0; v < e.numValves; v++ {
		rs.sharedValve[v] = rs.lineSize[ctrl.LineOf(v)] > 1
	}
	// Epoch counters restart per run; the stamp arrays were zeroed on
	// creation and every stale stamp is < the new epoch sequence only if
	// we also clear them — cheaper to keep the epochs monotonic across
	// runs instead, so explicitly zero the stamps once here.
	for v := range rs.reqOpenEp {
		rs.reqOpenEp[v] = 0
		rs.reqClosedEp[v] = 0
		rs.touchedEp[v] = 0
	}
	for ed := range rs.ownEp {
		rs.ownEp[ed] = 0
	}
	for i := range rs.prodMoveEp {
		rs.prodMoveEp[i] = 0
	}
	rs.snapEpoch, rs.memberEp = 0, 0
}

// run is the event loop.
func (rs *runState) run() (*Schedule, int, error) {
	numOps := rs.eng.numOps
	for rs.doneOps < numOps {
		if rs.ctx != nil {
			if err := rs.ctx.Err(); err != nil {
				return nil, rs.doneOps, fmt.Errorf("sched: cancelled at t=%d (%d/%d ops done): %w", rs.now, rs.doneOps, numOps, err)
			}
		}
		if rs.now > rs.params.MaxTime {
			return nil, rs.doneOps, rs.horizonError(rs.now)
		}
		for rs.step() {
		}
		if rs.doneOps == numOps {
			break
		}
		next := rs.nextEvent()
		if next < 0 {
			if t, ok := rs.livelock(); ok {
				return nil, rs.doneOps, rs.horizonError(t)
			}
			if rs.emergencyStorage() {
				continue
			}
			return nil, rs.doneOps, fmt.Errorf("sched: deadlock at t=%d: %d/%d ops done", rs.now, rs.doneOps, numOps)
		}
		rs.now = next
		if len(rs.wedges) > 0 {
			rs.events = append(rs.events, next)
		}
		rs.completeAt(next)
	}
	makespan := 0
	for _, r := range rs.recOps {
		if r.Finish > makespan {
			makespan = r.Finish
		}
	}
	// The schedule escapes the pooled state: hand out fresh copies.
	ops := append([]OpRecord(nil), rs.recOps...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Op < ops[j].Op })
	transports := append([]TransportRecord(nil), rs.recTransports...)
	return &Schedule{ExecutionTime: makespan, Ops: ops, Transports: transports}, rs.doneOps, nil
}

// horizonError is the error of a run still unfinished at event time t >
// MaxTime, whether simulated there or reached by the livelock proof.
func (rs *runState) horizonError(t int) error {
	return fmt.Errorf("sched: exceeded time horizon %ds at t=%d", rs.params.MaxTime, t)
}

func (rs *runState) nextEvent() int {
	next := -1
	for i := range rs.ops {
		if rs.ops[i].phase == phaseRunning {
			if t := rs.ops[i].finish; t > rs.now && (next < 0 || t < next) {
				next = t
			}
		}
	}
	for i := range rs.active {
		if t := rs.active[i].finish; t > rs.now && (next < 0 || t < next) {
			next = t
		}
	}
	return next
}

// completeAt retires ops and transports finishing at time t, maintaining
// the holderOf index at every product-location mutation.
func (rs *runState) completeAt(t int) {
	e := rs.eng
	for i := range rs.ops {
		oc := &rs.ops[i]
		if oc.phase != phaseRunning || oc.finish != t {
			continue
		}
		oc.phase = phaseDone
		rs.doneOps++
		nCons := len(e.graph.Succs(i))
		pr := &rs.products[i]
		if oc.isPort {
			if nCons > 0 {
				pr.exists = true
				pr.totalConsumers = nCons
				pr.loc = location{kind: atNode, id: e.chip.Ports[oc.device].Node}
				pr.holdsPort = oc.device
			} else {
				rs.portBusy[oc.device] = false
			}
		} else {
			if nCons > 0 {
				pr.exists = true
				pr.totalConsumers = nCons
				pr.loc = location{kind: atNode, id: e.chip.Devices[oc.device].Node}
				pr.holdsDevice = oc.device
			} else {
				rs.deviceBusy[oc.device] = false
			}
		}
	}
	keep := rs.active[:0]
	for idx := range rs.active {
		at := rs.active[idx]
		if at.finish != t {
			keep = append(keep, at)
			continue
		}
		for _, ed := range at.edges {
			rs.edgeBusy[ed] = false
		}
		task := &rs.tasks[at.taskIdx]
		pr := &rs.products[task.producer]
		task.done = true
		if task.consumer >= 0 {
			rs.ops[task.consumer].pending--
			pr.arrived++
			if pr.arrived >= pr.totalConsumers {
				pr.exists = false
				if pr.loc.kind == atEdge {
					rs.holderOf[pr.loc.id] = -1
				}
			}
		} else {
			pr.loc = at.to
			pr.moving = false
			if at.to.kind == atEdge {
				rs.holderOf[at.to.id] = task.producer
			} else if p := e.portOfNode[at.to.id]; p >= 0 {
				pr.holdsPort = p
			}
		}
	}
	rs.active = keep
}

// step is one fixpoint round: promote ready ops, bind devices, start
// transports, begin delivered runs.
func (rs *runState) step() bool {
	e := rs.eng
	changed := false
	for i := range rs.ops {
		if rs.ops[i].phase != phaseWaitPreds {
			continue
		}
		ready := true
		for _, p := range e.graph.Preds(i) {
			if rs.ops[p].phase != phaseDone {
				ready = false
				break
			}
		}
		if ready {
			rs.ops[i].phase = phaseWaitDevice
			changed = true
		}
	}
	for _, i := range rs.opsInPhase(phaseWaitDevice) {
		if rs.bindDevice(i) {
			changed = true
		}
	}
	for ti := 0; ti < len(rs.tasks); ti++ {
		if rs.tasks[ti].started || rs.tasks[ti].done {
			continue
		}
		if rs.tryStartTransport(ti) {
			changed = true
		}
	}
	for _, i := range rs.opsInPhase(phaseWaitDelivery) {
		if rs.ops[i].pending == 0 {
			rs.beginRun(i)
			changed = true
		}
	}
	return changed
}

// opsInPhase fills the reused phase buffer with the op IDs in the given
// phase ordered by (priority desc, ID asc) — the comparator is a total
// order, so the insertion sort reproduces sort.Slice's result exactly.
func (rs *runState) opsInPhase(ph opPhase) []int {
	out := rs.phaseBuf[:0]
	for i := range rs.ops {
		if rs.ops[i].phase == ph {
			out = append(out, i)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			pa, pb := rs.ops[a].priority, rs.ops[b].priority
			if pa > pb || (pa == pb && a < b) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	rs.phaseBuf = out
	return out
}

func (rs *runState) bindDevice(i int) bool {
	e := rs.eng
	op := e.graph.Op(i)
	if op.Kind == assay.Dispense {
		if !rs.dispenseUseful(i) && rs.liveProducts() >= len(e.chip.Devices) {
			return false
		}
		p := rs.freePort()
		if p < 0 {
			return false
		}
		rs.portBusy[p] = true
		oc := &rs.ops[i]
		oc.device = p
		oc.isPort = true
		oc.phase = phaseWaitDelivery
		oc.pending = 0
		return true
	}
	kind := chip.Mixer
	if op.Kind == assay.Detect {
		kind = chip.Detector
	}
	d := rs.pickDevice(kind, i)
	if d < 0 {
		return false
	}
	rs.deviceBusy[d] = true
	oc := &rs.ops[i]
	oc.device = d
	oc.isPort = false
	oc.phase = phaseWaitDelivery
	oc.pending = 0
	for _, p := range e.graph.Preds(i) {
		pr := &rs.products[p]
		if pr.exists && pr.loc.kind == atNode && pr.loc.id == e.chip.Devices[d].Node {
			rs.consumeInPlace(p)
			continue
		}
		rs.tasks = append(rs.tasks, engTask{producer: p, consumer: i})
		oc.pending++
	}
	return true
}

func (rs *runState) consumeInPlace(producer int) {
	pr := &rs.products[producer]
	pr.started++
	pr.arrived++
	if pr.started >= pr.totalConsumers {
		rs.releaseHold(producer)
	}
	if pr.arrived >= pr.totalConsumers {
		pr.exists = false
	}
}

func (rs *runState) releaseHold(producer int) {
	pr := &rs.products[producer]
	if pr.holdsDevice >= 0 {
		rs.deviceBusy[pr.holdsDevice] = false
		pr.holdsDevice = -1
	}
	if pr.holdsPort >= 0 {
		rs.portBusy[pr.holdsPort] = false
		pr.holdsPort = -1
	}
}

func (rs *runState) dispenseUseful(i int) bool {
	e := rs.eng
	for _, succ := range e.graph.Succs(i) {
		ready := true
		for _, p := range e.graph.Preds(succ) {
			if p == i {
				continue
			}
			if rs.ops[p].phase != phaseDone {
				ready = false
				break
			}
		}
		if ready {
			return true
		}
	}
	return false
}

func (rs *runState) liveProducts() int {
	n := 0
	for i := range rs.products {
		if rs.products[i].exists {
			n++
		}
	}
	return n
}

func (rs *runState) freePort() int {
	for p := range rs.eng.chip.Ports {
		if !rs.portBusy[p] {
			return p
		}
	}
	return -1
}

func (rs *runState) pickDevice(kind chip.DeviceKind, op int) int {
	e := rs.eng
	for _, p := range e.graph.Preds(op) {
		pr := &rs.products[p]
		if pr.exists && pr.holdsDevice >= 0 && pr.totalConsumers-pr.started == 1 &&
			e.chip.Devices[pr.holdsDevice].Kind == kind {
			d := pr.holdsDevice
			rs.deviceBusy[d] = false
			pr.holdsDevice = -1
			return d
		}
	}
	for _, d := range e.chip.Devices {
		if d.Kind == kind && !rs.deviceBusy[d.ID] {
			return d.ID
		}
	}
	return -1
}

func (rs *runState) beginRun(i int) {
	oc := &rs.ops[i]
	oc.phase = phaseRunning
	oc.start = rs.now
	oc.finish = rs.now + rs.eng.graph.Op(i).Duration
	rs.recOps = append(rs.recOps, OpRecord{
		Op: i, Device: oc.device, IsPort: oc.isPort, Start: oc.start, Finish: oc.finish,
	})
}
