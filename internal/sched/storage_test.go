package sched

import (
	"fmt"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// engineRunState builds a warm engine for (c, g) and checks out a zeroed
// runState bound to the control assignment — the harness for poking the
// storage policy directly.
func engineRunState(t *testing.T, c *chip.Chip, g *assay.Graph, p Params) (*Engine, *runState) {
	t.Helper()
	eng, err := NewEngine(c, g, p)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rs := newRunState(eng)
	rs.reset(chip.IndependentControl(c), p.withDefaults(), nil)
	return eng, rs
}

// storageCases are the two storage scenarios: CPA's 24 dispenses on the
// 2-device RA30 chip force products into channel storage, once on the
// pristine chip and once with stuck-closed valve 2 and stuck-open valve 7.
func storageCases(t *testing.T) []schedCase {
	c, g := chip.RA30(), assay.CPA()
	return []schedCase{
		newCase(t, "storage/RA30", c, g, nil, Params{}),
		newCase(t, "storage/RA30/bans", c, g, nil, Params{BanClosed: []int{2}, BanOpen: []int{7}}),
	}
}

// TestStorageMoveRecords: every ConsumerOp == -1 record must be a
// well-formed evacuation: a real producer, a non-empty route, and a
// destination segment that is valved (fluid can be sealed in) — and the
// schedule must match the fixture.
func TestStorageMoveRecords(t *testing.T) {
	sc := storageCases(t)[0]
	c, g := sc.eng.chip, sc.eng.graph
	sch, done, err := sc.eng.RunProgress(sc.ctrl, sc.p)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	checkFixture(t, fixtureLine(sc.id, sch, done, err))
	moves := 0
	for i, tr := range sch.Transports {
		if tr.ConsumerOp >= 0 {
			continue
		}
		moves++
		if tr.ProducerOp < 0 || tr.ProducerOp >= g.NumOps() {
			t.Fatalf("storage move %d: bad producer %d", i, tr.ProducerOp)
		}
		if len(tr.Edges) == 0 {
			t.Fatalf("storage move %d: empty route", i)
		}
		if tr.Finish <= tr.Start {
			t.Fatalf("storage move %d: non-positive duration", i)
		}
		last := tr.Edges[len(tr.Edges)-1]
		if _, ok := c.ValveOnEdge(last); !ok {
			t.Fatalf("storage move %d: destination edge %d unvalved", i, last)
		}
	}
	if moves == 0 {
		t.Fatalf("CPA on RA30 scheduled without storage moves; the policy is untested")
	}
}

// TestEmergencyStorageEvictionOrder: the wedge-breaking pass evacuates
// device/port holders before re-parking stored products, lowest op ID
// first. Product 5 holds a device and product 2 sits in a segment; the
// holder must move even though the stored product has the lower ID.
func TestEmergencyStorageEvictionOrder(t *testing.T) {
	c, g := chip.RA30(), assay.PID()
	_, rs := engineRunState(t, c, g, Params{})

	// Product 5: parked on device 0, no aliquots departed.
	rs.products[5] = productCtl{
		exists: true, totalConsumers: 1,
		loc:         location{kind: atNode, id: c.Devices[0].Node},
		holdsDevice: 0, holdsPort: -1,
	}
	rs.deviceBusy[0] = true
	// Product 2: already in channel storage.
	seg := -1
	for e := 0; e < c.Grid.NumEdges(); e++ {
		if _, ok := c.ValveOnEdge(e); ok && !rs.eng.doorstep[e] {
			seg = e
			break
		}
	}
	if seg < 0 {
		t.Fatal("no free non-doorstep segment on RA30")
	}
	rs.products[2] = productCtl{
		exists: true, totalConsumers: 1,
		loc:         location{kind: atEdge, id: seg},
		holdsDevice: -1, holdsPort: -1,
	}
	rs.holderOf[seg] = 2
	rs.heldCount++

	if !rs.emergencyStorage() {
		t.Fatal("emergencyStorage found no move")
	}
	if len(rs.recTransports) != 1 {
		t.Fatalf("recorded %d transports, want 1", len(rs.recTransports))
	}
	tr := rs.recTransports[0]
	if tr.ConsumerOp != -1 {
		t.Fatalf("ConsumerOp = %d, want -1", tr.ConsumerOp)
	}
	if tr.ProducerOp != 5 {
		t.Fatalf("evacuated product %d, want the device holder 5", tr.ProducerOp)
	}
	if !rs.products[5].moving || rs.products[5].holdsDevice != -1 || rs.deviceBusy[0] {
		t.Fatalf("holder not released: %+v deviceBusy=%v", rs.products[5], rs.deviceBusy[0])
	}
}

// TestEmergencyStorageSkipsDeparted: a product whose aliquots already
// started departing must not be evacuated (its task is marked done), and a
// failed candidate must not leave a phantom task behind.
func TestEmergencyStorageSkipsDeparted(t *testing.T) {
	c, g := chip.RA30(), assay.PID()
	_, rs := engineRunState(t, c, g, Params{})
	rs.products[3] = productCtl{
		exists: true, totalConsumers: 2, started: 1,
		loc:         location{kind: atNode, id: c.Devices[0].Node},
		holdsDevice: 0, holdsPort: -1,
	}
	if rs.emergencyStorage() {
		t.Fatal("evacuated a product already feeding consumers")
	}
	if len(rs.tasks) != 0 {
		t.Fatalf("%d phantom tasks left behind", len(rs.tasks))
	}
}

// parkRunState is an engine runState on mRNA/CPA holding the occupancy
// pattern of the parking-decision cases: a few busy edges and one stored
// product.
func parkRunState(t *testing.T) *runState {
	c := chip.MRNA()
	_, rs := engineRunState(t, c, assay.CPA(), Params{})
	for _, e := range []int{3, 17, 31} {
		if e < c.Grid.NumEdges() {
			rs.edgeBusy[e] = true
		}
	}
	seg := -1
	for e := 40; e < c.Grid.NumEdges(); e++ {
		if _, ok := c.ValveOnEdge(e); ok {
			seg = e
			break
		}
	}
	if seg < 0 {
		t.Fatal("no valved segment found")
	}
	rs.products[1] = productCtl{exists: true, totalConsumers: 1, loc: location{kind: atEdge, id: seg}, holdsDevice: -1, holdsPort: -1}
	rs.holderOf[seg] = 1
	rs.heldCount++
	return rs
}

func parkID(node int) string { return fmt.Sprintf("park/mRNA/node=%d", node) }

// parkLines renders the engine's parking decision from every device node.
func parkLines(t *testing.T) []string {
	rs := parkRunState(t)
	var out []string
	for _, d := range rs.eng.chip.Devices {
		edge, ok := rs.pickParkingEdge(d.Node)
		out = append(out, parkLine(parkID(d.Node), edge, ok))
	}
	return out
}

// TestPickParkingEdgeMatchesBaseline demands the seed scheduler's recorded
// parking decision from every device node for the same occupancy — the
// policy the warm path must never diverge from. A device node never parks
// on a doorstep edge while free segments remain.
func TestPickParkingEdgeMatchesBaseline(t *testing.T) {
	rs := parkRunState(t)
	for _, d := range rs.eng.chip.Devices {
		edge, ok := rs.pickParkingEdge(d.Node)
		checkFixture(t, parkLine(parkID(d.Node), edge, ok))
		if ok && rs.eng.doorstep[edge] {
			t.Fatalf("from node %d: parked on doorstep edge %d with free segments available", d.Node, edge)
		}
	}
}

// TestStorageUnderBans: with a stuck-closed and a stuck-open valve the
// parking policy must keep fluid out of the guarded segments; the schedule
// must match the fixture, validate against the ban set and never route
// through the banned edges.
func TestStorageUnderBans(t *testing.T) {
	sc := storageCases(t)[1]
	c, g, p := sc.eng.chip, sc.eng.graph, sc.p
	closedEdge := c.Valve(2).Edge // never conducts: no transport may cross it
	openEdge := c.Valve(7).Edge   // conducts but cannot seal: no fluid may park there

	sch, done, err := sc.eng.RunProgress(sc.ctrl, p)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	checkFixture(t, fixtureLine(sc.id, sch, done, err))
	if err := ValidateScheduleAvoids(c, g, sch, p.BanClosed, p.BanOpen); err != nil {
		t.Fatalf("schedule violates ban set: %v", err)
	}
	moves := 0
	for i, tr := range sch.Transports {
		for _, e := range tr.Edges {
			if e == closedEdge {
				t.Fatalf("transport %d routed through stuck-closed edge %d", i, e)
			}
		}
		if tr.ConsumerOp < 0 {
			moves++
			if last := tr.Edges[len(tr.Edges)-1]; last == closedEdge || last == openEdge {
				t.Fatalf("storage move %d parked on banned edge %d", i, last)
			}
		}
	}
	if moves == 0 {
		t.Fatal("ban scenario produced no storage moves; the guarded policy is untested")
	}
}
