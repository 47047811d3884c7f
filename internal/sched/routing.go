package sched

// Warm-engine routing: the per-transport path search. Dijkstra runs on
// pooled scratch (graphalg.PathScratch) over a per-edge weight table,
// filled once per search from the engine's baseWeight and the run's busy
// edges, stored products and reroute penalties, and settles both nodes of
// a segment destination in one search per source node.

// tryStartTransport attempts to launch the fluid movement for the pending
// task at index ti. It returns true when the transport started.
func (rs *runState) tryStartTransport(ti int) bool {
	task := &rs.tasks[ti]
	pr := &rs.products[task.producer]
	if !pr.exists || pr.moving {
		return false
	}
	if task.consumer < 0 {
		return rs.tryStartStorageMove(ti)
	}
	oc := &rs.ops[task.consumer]
	toNode := rs.eng.chip.Devices[oc.device].Node
	if oc.isPort {
		toNode = rs.eng.chip.Ports[oc.device].Node
	}
	edges, ok := rs.routeAndValidate(pr.loc, location{kind: atNode, id: toNode}, task.producer)
	if !ok {
		return false
	}
	rs.launch(ti, edges, location{kind: atNode, id: toNode})
	return true
}

// launch commits a transport: occupies edges, updates product bookkeeping,
// and records it. With the wash model enabled, segments last wetted by a
// different fluid are flushed first, extending the transport. The edge list
// is copied: the argument aliases routing scratch, while the copy escapes
// into the returned Schedule.
func (rs *runState) launch(ti int, edges []int, to location) {
	task := &rs.tasks[ti]
	pr := &rs.products[task.producer]
	ed := append([]int(nil), edges...)
	dur := len(ed) * rs.params.TransportTimePerEdge
	washed := 0
	if rs.params.WashTimePerEdge > 0 {
		for _, e := range ed {
			if rs.lastFluid[e] >= 0 && rs.lastFluid[e] != task.producer {
				washed++
			}
		}
		dur += washed * rs.params.WashTimePerEdge
	}
	for _, e := range ed {
		rs.lastFluid[e] = task.producer
	}
	if dur == 0 {
		dur = 1 // same-node move still takes a beat
	}
	for _, e := range ed {
		rs.edgeBusy[e] = true
	}
	task.started = true
	if task.consumer >= 0 {
		pr.started++
		if pr.started >= pr.totalConsumers {
			rs.releaseHold(task.producer)
		}
	} else {
		pr.moving = true
		rs.releaseHold(task.producer)
	}
	rs.active = append(rs.active, engActive{
		taskIdx: ti,
		edges:   ed,
		finish:  rs.now + dur,
		to:      to,
	})
	rs.recTransports = append(rs.recTransports, TransportRecord{
		ProducerOp:  task.producer,
		ConsumerOp:  task.consumer,
		Edges:       ed,
		Start:       rs.now,
		Finish:      rs.now + dur,
		WashedEdges: washed,
	})
}

// routeAndValidate finds a path that is free right now and whose valve
// demands are snapshot-compatible with every in-flight transport and stored
// product under the control assignment. It retries with penalized edges
// when the only obstacle is a control conflict; each retry is a fallback
// reroute on the engine metrics.
func (rs *runState) routeAndValidate(from, to location, producer int) ([]int, bool) {
	rs.clearPenalties()
	for attempt := 0; attempt < rs.params.MaxReroutes; attempt++ {
		if attempt > 0 {
			rs.eng.metrics.noteFallbackReroute()
		}
		edges, ok := rs.findPath(from, to, producer)
		if !ok {
			return nil, false
		}
		if rs.conflictFree(edges, producer) {
			return edges, true
		}
		for _, e := range edges {
			if rs.penalty[e] == 0 {
				rs.penTouch = append(rs.penTouch, e)
			}
			rs.penalty[e] += 10
		}
	}
	return nil, false
}

// clearPenalties resets the reroute penalties touched by the previous
// routeAndValidate call.
func (rs *runState) clearPenalties() {
	for _, e := range rs.penTouch {
		rs.penalty[e] = 0
	}
	rs.penTouch = rs.penTouch[:0]
}

// findPath computes a minimum-cost path of channel edges between two
// locations for producer's fluid: it fills the run's dynamic weight table,
// in which busy edges and segments storing another product are forbidden
// and reroute penalties raise the cost, and runs Dijkstra on it. The
// returned slice aliases run scratch; callers must copy before retaining
// it.
func (rs *runState) findPath(from, to location, producer int) ([]int, bool) {
	e := rs.eng
	w := rs.weight
	for ed, base := range e.baseWeight {
		switch h := rs.holderOf[ed]; {
		case base < 0: // unvalved or stuck-closed segment never conducts
			w[ed] = -1
		case rs.edgeBusy[ed], h >= 0 && h != producer:
			w[ed] = -1
		default:
			w[ed] = 1 + rs.penalty[ed]
		}
	}
	return rs.searchPath(from, to, w)
}

// searchPath is findPath's cross-product shortest-path search, including
// the stored-segment entry/exit adjustments. Node enumeration order and
// the strict `cost < best` comparison decide ties, so both are part of the
// scheduling policy the fixture pins. One search per from-node settles every to-node; each
// to-node's path is the one a search for it alone would return
// (graphalg.ShortestPathTreeScratch).
func (rs *runState) searchPath(from, to location, w []float64) ([]int, bool) {
	e := rs.eng
	var fromBuf, toBuf [2]int
	fromNodes := rs.locationNodes(from, &fromBuf)
	toNodes := rs.locationNodes(to, &toBuf)
	best := rs.pathBest[:0]
	bestCost := -1.0
	for _, fn := range fromNodes {
		e.grid.ShortestPathTreeScratch(&rs.path, fn, toNodes[0], toNodes[len(toNodes)-1], w)
		for _, tn := range toNodes {
			edges, cost, ok := rs.path.PathTo(tn)
			if !ok {
				continue
			}
			if bestCost < 0 || cost < bestCost {
				best = append(best[:0], edges...)
				bestCost = cost
			}
		}
	}
	rs.pathBest = best
	if bestCost < 0 {
		return nil, false
	}
	// Moving out of (or into) a stored segment traverses that segment too.
	out := rs.pathOut[:0]
	if from.kind == atEdge && (len(best) == 0 || best[0] != from.id) {
		out = append(out, from.id)
	}
	out = append(out, best...)
	if to.kind == atEdge && (len(out) == 0 || out[len(out)-1] != to.id) {
		out = append(out, to.id)
	}
	rs.pathOut = out
	return out, true
}

// locationNodes writes the grid nodes a location touches into buf.
func (rs *runState) locationNodes(l location, buf *[2]int) []int {
	if l.kind == atNode {
		buf[0] = l.id
		return buf[:1]
	}
	u, v := rs.eng.grid.Endpoints(l.id)
	buf[0], buf[1] = u, v
	return buf[:2]
}
