package sched

// Warm-engine snapshot validation (Section 4.1 of the paper) on
// epoch-stamped scratch arrays, so a validation attempt allocates nothing.
// It derives two demand sets — valves required open by some moving fluid,
// valves required closed by the contamination guard or a stored-segment
// seal — and rejects a snapshot whose control lines are demanded both
// ways.

// conflictFree validates the valve snapshot if `edges` were opened now for
// a movement of `producer`, alongside all active transports and stored
// products. It returns false when a ban overrides a demand (stuck-closed
// valve required open; stuck-open valve required to seal, unless relaxed)
// or when any control line would be demanded both open and closed — the
// contamination/blocking hazard of valve sharing.
func (rs *runState) conflictFree(edges []int, producer int) bool {
	e := rs.eng
	rs.snapEpoch++
	ep := rs.snapEpoch
	rs.touched = rs.touched[:0]

	markOpen := func(v int) {
		if rs.touchedEp[v] != ep {
			rs.touchedEp[v] = ep
			rs.touched = append(rs.touched, v)
		}
		rs.reqOpenEp[v] = ep
	}
	markClosed := func(v int) {
		if rs.touchedEp[v] != ep {
			rs.touchedEp[v] = ep
			rs.touched = append(rs.touched, v)
		}
		rs.reqClosedEp[v] = ep
	}

	// One member per concurrently moving fluid: the candidate path plus
	// every active transport. Each member's own edges must open; every
	// off-path valved edge incident to a member node must stay closed (the
	// contamination guard). Member products are exempt from the stored-seal
	// pass below.
	member := func(medges []int, product int) {
		rs.memberEp++
		me := rs.memberEp
		for _, ed := range medges {
			rs.ownEp[ed] = me
			if v := e.valveOf[ed]; v >= 0 {
				markOpen(v)
			}
		}
		for _, ed := range medges {
			u, v := e.grid.Endpoints(ed)
			for _, e2 := range e.incident[u] {
				if rs.ownEp[e2] != me {
					if vv := e.valveOf[e2]; vv >= 0 {
						markClosed(vv)
					}
				}
			}
			for _, e2 := range e.incident[v] {
				if rs.ownEp[e2] != me {
					if vv := e.valveOf[e2]; vv >= 0 {
						markClosed(vv)
					}
				}
			}
		}
		rs.prodMoveEp[product] = ep
	}
	member(edges, producer)
	for i := range rs.active {
		at := &rs.active[i]
		member(at.edges, rs.tasks[at.taskIdx].producer)
	}

	// Stored products keep their segment sealed, except the ones on the move.
	for i := range rs.products {
		pr := &rs.products[i]
		if !pr.exists || pr.loc.kind != atEdge || rs.prodMoveEp[i] == ep {
			continue
		}
		if v := e.valveOf[pr.loc.id]; v >= 0 {
			markClosed(v)
		}
	}

	// Physical bans override control: a stuck-closed valve cannot open no
	// matter what its line does, and a stuck-open valve cannot seal — any
	// snapshot demanding that seal is a contamination hazard unless the
	// relaxed tier explicitly accepts it.
	for _, v := range rs.touched {
		if rs.reqOpenEp[v] == ep && e.stuckClosed[v] {
			return false
		}
		if rs.reqClosedEp[v] == ep && e.stuckOpen[v] && !rs.params.RelaxStuckOpenSeal {
			return false
		}
	}

	// Line conflicts: a control line demanded both open and closed.
	// Forced-open valves far away from every active path are harmless — a
	// dead-end branch carries no pressure-driven flow — so only the demand
	// sets above participate.
	for _, v := range rs.touched {
		if rs.reqOpenEp[v] == ep {
			rs.lineOpenEp[rs.ctrl.LineOf(v)] = ep
		}
	}
	for _, v := range rs.touched {
		if rs.reqClosedEp[v] == ep && rs.lineOpenEp[rs.ctrl.LineOf(v)] == ep {
			return false
		}
	}
	return true
}
