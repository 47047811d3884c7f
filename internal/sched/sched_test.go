package sched

import (
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/grid"
)

func xy(x, y int) grid.Coord { return grid.Coord{X: x, Y: y} }

func mustRun(t *testing.T, c *chip.Chip, ctrl *chip.Control, g *assay.Graph) *Schedule {
	t.Helper()
	sch, err := Run(c, ctrl, g, Params{})
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name, c.Name, err)
	}
	return sch
}

// checkSchedule verifies the structural invariants via the library's own
// validator (every op once, precedence, device and transport exclusivity,
// resource kinds, makespan).
func checkSchedule(t *testing.T, c *chip.Chip, g *assay.Graph, sch *Schedule) {
	t.Helper()
	if err := ValidateSchedule(c, g, sch); err != nil {
		t.Error(err)
	}
	if sch.ExecutionTime <= 0 {
		t.Error("non-positive execution time")
	}
}

func TestIVDOnIVDChip(t *testing.T) {
	c := chip.IVD()
	g := assay.IVD()
	sch := mustRun(t, c, nil, g)
	checkSchedule(t, c, g, sch)
	if cp := g.CriticalPath(); sch.ExecutionTime < cp {
		t.Fatalf("execution %d below critical path %d", sch.ExecutionTime, cp)
	}
	t.Logf("IVD on IVD_chip: %d s", sch.ExecutionTime)
}

func TestAllAssaysOnAllChips(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		for _, g := range assay.Benchmarks() {
			sch := mustRun(t, c, nil, g)
			checkSchedule(t, c, g, sch)
			t.Logf("%s on %s: %d s (%d transports)", g.Name, c.Name, sch.ExecutionTime, len(sch.Transports))
		}
	}
}

func TestDeterminism(t *testing.T) {
	for i := 0; i < 3; i++ {
		a := mustRun(t, chip.RA30(), nil, assay.PID())
		b := mustRun(t, chip.RA30(), nil, assay.PID())
		if a.ExecutionTime != b.ExecutionTime {
			t.Fatalf("nondeterministic: %d vs %d", a.ExecutionTime, b.ExecutionTime)
		}
	}
}

// lineChip builds M(1,1) --- D(4,1) with ports on both ends; the single
// horizontal channel is the only route.
//
//	P0(0,1) -v0- M(1,1) -v1- (2,1) -v2- (3,1) -v3- D(4,1) -v4- P1(5,1)
func lineChip(t *testing.T) *chip.Chip {
	t.Helper()
	b := chip.NewBuilder("line", 6, 3)
	b.AddDevice(chip.Mixer, "M", xy(1, 1))
	b.AddDevice(chip.Detector, "D", xy(4, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(5, 1))
	b.AddChannel(xy(0, 1), xy(1, 1), xy(2, 1), xy(3, 1), xy(4, 1), xy(5, 1))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func miniAssay() *assay.Graph {
	g := assay.New("mini")
	m := g.AddOp(assay.Mix, "m", 10)
	d := g.AddOp(assay.Detect, "d", 5)
	g.AddDep(m, d)
	return g
}

func TestLineChipTransport(t *testing.T) {
	c := lineChip(t)
	sch := mustRun(t, c, nil, miniAssay())
	if len(sch.Transports) != 1 {
		t.Fatalf("expected 1 transport, got %d", len(sch.Transports))
	}
	tr := sch.Transports[0]
	if len(tr.Edges) != 3 {
		t.Fatalf("transport path %v, want the 3 edges between M and D", tr.Edges)
	}
	// Default 2 s/edge.
	if tr.Finish-tr.Start != 6 {
		t.Fatalf("transport took %d s, want 6", tr.Finish-tr.Start)
	}
}

// Sharing that blocks the only transport: the DFT stub valve hangs off the
// middle of the M->D route and shares control with a route valve. Moving
// fluid requires the route valve open and the stub closed (contamination
// guard) — impossible on one line, so the assay is unschedulable, which is
// exactly the scenario the paper's validation rejects with quality ∞.
func TestSharingBlocksTransport(t *testing.T) {
	c := lineChip(t)
	e, ok := c.Grid.EdgeBetweenCoords(xy(2, 1), xy(2, 0))
	if !ok {
		t.Fatal("missing stub edge")
	}
	if _, err := c.AddDFTChannel(e); err != nil {
		t.Fatal(err)
	}
	// Stub valve (ID 5) shares with route valve v2 (edge (2,1)-(3,1)).
	ctrl, err := chip.SharedControl(c, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, ctrl, miniAssay(), Params{MaxTime: 3600}); err == nil {
		t.Fatal("expected unschedulable under blocking valve sharing")
	}
	// Sharing with the port-side valve v0 instead: the transport M->D does
	// not pass v0's node... v0 is P0-M edge; its node M is the transport
	// source, so the stub (forced open with v0) is fine only if v0 stays
	// closed during the move — it does (off-path), so both close together.
	ctrl2, err := chip.SharedControl(c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Run(c, ctrl2, miniAssay(), Params{MaxTime: 3600})
	if err != nil {
		t.Fatalf("benign sharing should schedule: %v", err)
	}
	checkSchedule(t, c, miniAssay(), sch)
}

// Fig. 7 scenario: DFT channels with independent control add transport
// resources, so execution time must not get worse.
func TestDFTIndependentControlNotWorse(t *testing.T) {
	orig := chip.IVD()
	g := assay.IVD()
	base := mustRun(t, orig, nil, g)

	dft := chip.IVD()
	// Add a couple of parallel detour edges near the devices.
	for _, pair := range [][2]grid.Coord{
		{xy(1, 1), xy(2, 1)}, // already occupied: skipped below
		{xy(2, 1), xy(2, 2)},
		{xy(2, 2), xy(2, 3)},
	} {
		e, ok := dft.Grid.EdgeBetweenCoords(pair[0], pair[1])
		if !ok {
			continue
		}
		if _, occupied := dft.ValveOnEdge(e); occupied {
			continue
		}
		if _, err := dft.AddDFTChannel(e); err != nil {
			t.Fatal(err)
		}
	}
	aug := mustRun(t, dft, chip.IndependentControl(dft), g)
	// List scheduling is not monotone in resources (Graham anomalies), so
	// allow a small regression; Fig. 7's claim is "comparable or better".
	if float64(aug.ExecutionTime) > 1.25*float64(base.ExecutionTime) {
		t.Fatalf("independent-control DFT much slower: %d vs %d", aug.ExecutionTime, base.ExecutionTime)
	}
	t.Logf("orig %d s, DFT+independent %d s", base.ExecutionTime, aug.ExecutionTime)
}

func TestUnvalidatedGraphRejected(t *testing.T) {
	g := assay.New("bad")
	a := g.AddOp(assay.Mix, "a", 10)
	b := g.AddOp(assay.Mix, "b", 10)
	g.AddDep(a, b)
	g.AddDep(b, a)
	if _, err := Run(chip.IVD(), nil, g, Params{}); err == nil {
		t.Fatal("cyclic graph must be rejected")
	}
}

func TestWrongControlChipRejected(t *testing.T) {
	c1, c2 := chip.IVD(), chip.IVD()
	ctrl := chip.IndependentControl(c2)
	if _, err := Run(c1, ctrl, assay.IVD(), Params{}); err == nil {
		t.Fatal("control for a different chip must be rejected")
	}
}

func TestCPAUsesDispensePorts(t *testing.T) {
	c := chip.MRNA()
	g := assay.CPA()
	sch := mustRun(t, c, nil, g)
	checkSchedule(t, c, g, sch)
	ports := 0
	for _, r := range sch.Ops {
		if r.IsPort {
			ports++
		}
	}
	if ports != g.CountKind(assay.Dispense) {
		t.Fatalf("%d port ops, want %d dispenses", ports, g.CountKind(assay.Dispense))
	}
}

func TestSchedulerReportsStorageMoves(t *testing.T) {
	// PID's long chain on a 2-mixer chip forces products to wait; expect at
	// least one storage move ( ConsumerOp == -1 ) or a clean schedule.
	sch := mustRun(t, chip.RA30(), nil, assay.PID())
	moves := 0
	for _, tr := range sch.Transports {
		if tr.ConsumerOp < 0 {
			moves++
		}
	}
	t.Logf("PID on RA30: %d storage moves", moves)
}
