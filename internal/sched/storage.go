package sched

// Warm-engine channel-storage policy: emergencyStorage /
// tryStartStorageMove / pickParkingEdge / parkingKeepsConnectivity on
// pooled scratch. The selection order — ascending product scans, the
// two-pass doorstep preference and the exact (distance, edge-ID)
// tie-break — decides which segment a product parks in, so it is part of
// the scheduling policy the fixture pins. The engine's holderOf index
// answers which product a segment stores; its two invariant sites in this
// file (clearing the old segment when a stored product starts moving) pair
// with the arrival site in events.go.

// emergencyStorage fires only when the simulation is wedged (nothing
// running, nothing startable): it evacuates one held product into a free
// channel segment (distributed channel storage, ref. [6]) to release its
// device or port. It returns true iff a storage move actually started.
func (rs *runState) emergencyStorage() bool {
	// First choice: evacuate a product holding a device or port. Second
	// choice: re-park a stored product whose segment seal may be wedging
	// the chip. Each choice takes products in ascending ID order.
	buf := rs.evacBuf[:0]
	for i := range rs.products {
		pr := &rs.products[i]
		if !pr.exists || pr.started > 0 || pr.moving {
			continue
		}
		if pr.holdsDevice >= 0 || pr.holdsPort >= 0 {
			buf = append(buf, i)
		}
	}
	for i := range rs.products {
		pr := &rs.products[i]
		if !pr.exists || pr.started > 0 || pr.moving {
			continue
		}
		if pr.holdsDevice >= 0 || pr.holdsPort >= 0 {
			continue
		}
		if pr.loc.kind == atEdge {
			buf = append(buf, i)
		}
	}
	rs.evacBuf = buf
	for _, i := range buf {
		// Tasks are value entries: append tentatively, keep on success,
		// truncate on failure, so only started tasks stay.
		ti := len(rs.tasks)
		rs.tasks = append(rs.tasks, engTask{producer: i, consumer: -1})
		if rs.tryStartTransport(ti) {
			return true
		}
		rs.tasks = rs.tasks[:ti]
	}
	return false
}

// tryStartStorageMove routes a held or stored product to the best free
// parking segment near it (stored products may be re-parked when their
// current segment's seal wedges the chip).
func (rs *runState) tryStartStorageMove(ti int) bool {
	e := rs.eng
	task := &rs.tasks[ti]
	pr := &rs.products[task.producer]
	if pr.started > 0 {
		task.done = true // aliquots already departing; storage no longer needed
		return false
	}
	fromNode := pr.loc.id
	if pr.loc.kind == atEdge {
		fromNode, _ = e.grid.Endpoints(pr.loc.id)
	}
	if target, ok := rs.pickParkingEdge(fromNode); ok && !(pr.loc.kind == atEdge && target == pr.loc.id) {
		to := location{kind: atEdge, id: target}
		if edges, ok2 := rs.routeAndValidate(pr.loc, to, task.producer); ok2 {
			if pr.loc.kind == atEdge {
				// The old segment frees once the move completes; while
				// moving, the fluid occupies the path (including the old
				// segment). holderOf mirrors the loc change.
				rs.holderOf[pr.loc.id] = -1
				pr.loc = location{kind: atNode, id: fromNode}
			}
			rs.launch(ti, edges, to)
			return true
		}
	}
	// Fallback tier: park the product at a free external port — a vial
	// waiting at the chip boundary.
	if pr.holdsPort >= 0 {
		return false // already at a port; nothing gained
	}
	for p := range e.chip.Ports {
		if rs.portBusy[p] {
			continue
		}
		to := location{kind: atNode, id: e.chip.Ports[p].Node}
		edges, ok2 := rs.routeAndValidate(pr.loc, to, task.producer)
		if !ok2 {
			continue
		}
		if pr.loc.kind == atEdge {
			rs.holderOf[pr.loc.id] = -1
			pr.loc = location{kind: atNode, id: fromNode}
		}
		rs.portBusy[p] = true // reserved for the incoming fluid
		rs.launch(ti, edges, to)
		return true
	}
	return false
}

// pickParkingEdge selects the closest free channel segment that is not a
// doorstep of any device or port (parking there would block it), falling
// back to doorstep parking on sparse chips. It reads the engine's
// precomputed doorstep flags and the run's sharedValve flags.
func (rs *runState) pickParkingEdge(fromNode int) (int, bool) {
	e := rs.eng
	rs.dist = e.grid.BFSDistScratch(&rs.bfs, rs.dist, fromNode, func(ed int) bool {
		v := e.valveOf[ed]
		if v < 0 || e.stuckClosed[v] {
			return false
		}
		if rs.edgeBusy[ed] {
			return false
		}
		return rs.holderOf[ed] < 0
	})
	dist := rs.dist
	for pass := 0; pass < 2; pass++ {
		best, bestD := -1, -1
		for ed := 0; ed < e.numEdges; ed++ {
			valve := e.valveOf[ed]
			if valve < 0 {
				continue
			}
			if e.bannedEdge[ed] {
				// A stuck-closed segment cannot receive fluid; a stuck-open
				// one can never seal it in.
				continue
			}
			if rs.sharedValve[valve] {
				// Never park on a shared-line segment: its seal would
				// force the partner valve closed for the whole storage
				// period and starve transports that need it.
				continue
			}
			if rs.edgeBusy[ed] {
				continue
			}
			if rs.holderOf[ed] >= 0 {
				continue
			}
			if pass == 0 && e.doorstep[ed] {
				continue
			}
			u, v := e.grid.Endpoints(ed)
			d := dist[u]
			if dist[v] >= 0 && (d < 0 || dist[v] < d) {
				d = dist[v]
			}
			if d < 0 {
				continue // unreachable
			}
			if (best < 0 || d < bestD || (d == bestD && ed < best)) && rs.parkingKeepsConnectivity(ed) {
				best, bestD = ed, d
			}
		}
		if best >= 0 {
			return best, true
		}
	}
	return -1, false
}

// parkingKeepsConnectivity reports whether storing fluid on edge ed (in
// addition to every segment already storing fluid) keeps the chip live:
// all devices and ports must remain mutually connected, and every stored
// segment (including ed) must keep an endpoint on that component so its
// fluid can be fetched. Runs on the secondary BFS buffer — the primary one
// holds pickParkingEdge's distance field while this is called.
func (rs *runState) parkingKeepsConnectivity(ed int) bool {
	e := rs.eng
	allow := func(e2 int) bool {
		if e2 == ed || rs.holderOf[e2] >= 0 {
			return false
		}
		v := e.valveOf[e2]
		return v >= 0 && !e.stuckClosed[v]
	}
	ref := e.chip.Devices[0].Node
	rs.dist2 = e.grid.BFSDistScratch(&rs.bfs, rs.dist2, ref, allow)
	dist := rs.dist2
	for _, d := range e.chip.Devices {
		if dist[d.Node] < 0 {
			return false
		}
	}
	for _, p := range e.chip.Ports {
		if dist[p.Node] < 0 {
			return false
		}
	}
	u, v := e.grid.Endpoints(ed)
	if dist[u] < 0 && dist[v] < 0 {
		return false
	}
	for i := range rs.products {
		pr := &rs.products[i]
		if pr.exists && pr.loc.kind == atEdge {
			su, sv := e.grid.Endpoints(pr.loc.id)
			if dist[su] < 0 && dist[sv] < 0 {
				return false
			}
		}
	}
	return true
}
