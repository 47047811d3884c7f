package sched

import "sort"

// Livelock fast-forward. A wedge is the event-loop point where no event is
// pending (nextEvent() < 0) and emergencyStorage is about to shuffle a
// parked product. Nothing is in flight there — no active transport, no
// busy edge — so the state encodeWedge records determines the rest of the
// run, shifted in time: the loop only ever reads time as an offset from
// now.
//
// Op phases only move forward. Two equal wedge states at now₁ < now₂
// therefore mean that no op advanced in between, and that the run repeats
// with period P = now₂ − now₁ forever. It can neither finish nor deadlock,
// so its one outcome is the horizon error, with the progress it has now.
// The loop checks the horizon at every event time, so that error names the
// first event time past MaxTime. With δⱼ the offsets from now₁ of the
// event times logged after the first wedge, that is the smallest
// now₂ + k·P + δⱼ > MaxTime over k ≥ 0.
//
// The recorded wedges are dropped whenever the op phases change (no
// earlier state can recur after that), which bounds their memory by the
// wedges of one stalled stretch.

// wedgeRec is one recorded wedge: its state words, when it happened and
// how long the event log was at that point.
type wedgeRec struct {
	off, end int // state in runState.wedgeWords[off:end]
	now      int
	event    int // len(runState.events) when recorded
	prev     int // previous wedge with the same hash (-1 none)
}

// livelock records the wedge the loop has just reached. If the same state
// was recorded before, it counts the livelock and returns the time at
// which the full simulation would report the horizon error.
func (rs *runState) livelock() (int, bool) {
	if len(rs.active) != 0 {
		panic("sched: wedge with a transport in flight")
	}
	for _, busy := range rs.edgeBusy {
		if busy {
			panic("sched: wedge with a busy edge")
		}
	}
	phases := 0
	for i := range rs.ops {
		phases += int(rs.ops[i].phase)
	}
	if phases != rs.wedgePhases {
		rs.clearWedges()
		rs.wedgePhases = phases
	}
	off := len(rs.wedgeWords)
	h := rs.encodeWedge()
	state := rs.wedgeWords[off:]
	head, seen := rs.wedgeSeen[h]
	for j := head; seen && j >= 0; j = rs.wedges[j].prev {
		w := &rs.wedges[j]
		if equalInts(rs.wedgeWords[w.off:w.end], state) {
			rs.eng.metrics.noteLivelock()
			return rs.crossing(w), true
		}
	}
	if !seen {
		head = -1
	}
	rs.wedgeSeen[h] = len(rs.wedges)
	rs.wedges = append(rs.wedges, wedgeRec{off: off, end: len(rs.wedgeWords), now: rs.now, event: len(rs.events), prev: head})
	return 0, false
}

// crossing is the first event time past MaxTime of a run whose wedge at
// now repeats the recorded wedge w. Writing MaxTime − now = q·P + r with
// 0 ≤ r < P, it is now + q·P + the smallest logged offset above r; the
// period's last offset is P itself, so that offset always exists.
func (rs *runState) crossing(w *wedgeRec) int {
	period := rs.now - w.now
	rest := rs.params.MaxTime - rs.now
	q, r := rest/period, rest%period
	log := rs.events[w.event:]
	j := sort.SearchInts(log, w.now+r+1)
	return rs.now + q*period + log[j] - w.now
}

// encodeWedge appends the current wedge state to wedgeWords and returns
// its hash. Every section before the tasks has a fixed length for the
// run, so equal word slices mean equal states.
func (rs *runState) encodeWedge() uint64 {
	w := rs.wedgeWords
	for i := range rs.ops {
		oc := &rs.ops[i]
		left := 0
		if oc.phase == phaseRunning {
			left = oc.finish - rs.now
		}
		w = append(w, int(oc.phase), oc.device, b2i(oc.isPort), oc.pending, left)
	}
	for i := range rs.products {
		pr := &rs.products[i]
		w = append(w, b2i(pr.exists), int(pr.loc.kind), pr.loc.id, pr.totalConsumers,
			pr.started, pr.arrived, pr.holdsDevice, pr.holdsPort, b2i(pr.moving))
	}
	for _, busy := range rs.deviceBusy {
		w = append(w, b2i(busy))
	}
	for _, busy := range rs.portBusy {
		w = append(w, b2i(busy))
	}
	if rs.params.WashTimePerEdge > 0 {
		w = append(w, rs.lastFluid...)
	}
	for i := range rs.tasks {
		if t := &rs.tasks[i]; !t.done {
			w = append(w, t.producer, t.consumer, b2i(t.started))
		}
	}
	h := uint64(14695981039346656037) // FNV-1a over the new words
	for _, x := range w[len(rs.wedgeWords):] {
		h = (h ^ uint64(x)) * 1099511628211
	}
	rs.wedgeWords = w
	return h
}

// clearWedges forgets every recorded wedge and the event log, keeping the
// buffers for reuse.
func (rs *runState) clearWedges() {
	clear(rs.wedgeSeen)
	rs.wedges = rs.wedges[:0]
	rs.wedgeWords = rs.wedgeWords[:0]
	rs.events = rs.events[:0]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
