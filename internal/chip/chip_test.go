package chip

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestBenchmarkValveCounts(t *testing.T) {
	cases := []struct {
		c                *Chip
		mixers, dets     int
		valves, minPorts int
	}{
		{IVD(), 3, 2, 12, 2},
		{RA30(), 2, 3, 16, 2},
		{MRNA(), 3, 1, 28, 2},
	}
	for _, tc := range cases {
		st := tc.c.Stats()
		if got := st.Mixers; got != tc.mixers {
			t.Errorf("%s: mixers = %d, want %d", tc.c.Name, got, tc.mixers)
		}
		if got := st.Detectors; got != tc.dets {
			t.Errorf("%s: detectors = %d, want %d", tc.c.Name, got, tc.dets)
		}
		if got := tc.c.NumValves(); got != tc.valves {
			t.Errorf("%s: valves = %d, want %d", tc.c.Name, got, tc.valves)
		}
		if got := tc.c.NumOriginalValves(); got != tc.valves {
			t.Errorf("%s: original valves = %d, want %d (no DFT yet)", tc.c.Name, got, tc.valves)
		}
		if len(tc.c.Ports) < tc.minPorts {
			t.Errorf("%s: ports = %d, want >= %d", tc.c.Name, len(tc.c.Ports), tc.minPorts)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	for _, name := range []string{"IVD_chip", "RA30_chip", "mRNA_chip", "ivd", "ra30", "mrna"} {
		if _, ok := BenchmarkByName(name); !ok {
			t.Errorf("BenchmarkByName(%q) not found", name)
		}
	}
	if _, ok := BenchmarkByName("nope"); ok {
		t.Error("BenchmarkByName(nope) should fail")
	}
}

func TestPortsAllConnectedWhenAllValvesOpen(t *testing.T) {
	for _, c := range Benchmarks() {
		open := make([]bool, c.NumValves())
		for i := range open {
			open[i] = true
		}
		for i := 1; i < len(c.Ports); i++ {
			if !c.PressureReachable(c.Ports[0].Node, c.Ports[i].Node, open) {
				t.Errorf("%s: port %s unreachable from %s with all valves open",
					c.Name, c.Ports[i].Name, c.Ports[0].Name)
			}
		}
	}
}

func TestNoPressureWithAllValvesClosed(t *testing.T) {
	for _, c := range Benchmarks() {
		closed := make([]bool, c.NumValves())
		for i := 1; i < len(c.Ports); i++ {
			if c.PressureReachable(c.Ports[0].Node, c.Ports[i].Node, closed) {
				t.Errorf("%s: pressure leaks with all valves closed", c.Name)
			}
		}
	}
}

func TestValveOnEdgeRoundTrip(t *testing.T) {
	c := IVD()
	for _, v := range c.Valves() {
		got, ok := c.ValveOnEdge(v.Edge)
		if !ok || got != v.ID {
			t.Fatalf("ValveOnEdge(%d) = (%d,%v), want (%d,true)", v.Edge, got, ok, v.ID)
		}
	}
	// A free edge must have no valve.
	for e := 0; e < c.Grid.NumEdges(); e++ {
		if _, ok := c.ValveOnEdge(e); !ok {
			return // found one free edge; done
		}
	}
	t.Fatal("expected at least one free edge on the IVD grid")
}

func TestAddDFTChannel(t *testing.T) {
	c := IVD()
	free := -1
	for e := 0; e < c.Grid.NumEdges(); e++ {
		if _, ok := c.ValveOnEdge(e); !ok {
			free = e
			break
		}
	}
	v, err := c.AddDFTChannel(free)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valve(v).DFT {
		t.Fatal("new valve must be marked DFT")
	}
	if c.NumDFTValves() != 1 || c.NumOriginalValves() != 12 {
		t.Fatalf("counts: dft=%d orig=%d", c.NumDFTValves(), c.NumOriginalValves())
	}
	if _, err := c.AddDFTChannel(free); err == nil {
		t.Fatal("double occupation must fail")
	}
	if _, err := c.AddDFTChannel(-1); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	if got, ok := c.ValveOnEdge(free); !ok || got != v {
		t.Fatalf("ValveOnEdge(%d) = %d, %v; want the DFT valve %d", free, got, ok, v)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := IVD()
	cl := c.Clone()
	free := -1
	for e := 0; e < cl.Grid.NumEdges(); e++ {
		if _, ok := cl.ValveOnEdge(e); !ok {
			free = e
			break
		}
	}
	if _, err := cl.AddDFTChannel(free); err != nil {
		t.Fatal(err)
	}
	if c.NumValves() != 12 || cl.NumValves() != 13 {
		t.Fatalf("clone not independent: orig=%d clone=%d", c.NumValves(), cl.NumValves())
	}
}

func TestMaxDistantPortPair(t *testing.T) {
	c := IVD()
	a, b := c.MaxDistantPortPair()
	if a == b {
		t.Fatal("pair must be distinct")
	}
	// On the IVD layout, P1(0,3) and P2(5,1) are the farthest pair:
	// P1->D1->M1->M2->P2 = 1+2+2+2 = 7 hops; P0->P2 is 1+2+2=5; P0->P1 is 4.
	pa, pb := c.Ports[a], c.Ports[b]
	if !(pa.Name == "P1" && pb.Name == "P2" || pa.Name == "P2" && pb.Name == "P1") {
		t.Fatalf("farthest pair = %s,%s; want P1,P2", pa.Name, pb.Name)
	}
}

func TestStatsAndString(t *testing.T) {
	c := RA30()
	s := c.Stats()
	if s.Mixers != 2 || s.Detectors != 3 || s.OriginalValves != 16 || s.Ports != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FreeEdges != c.Grid.NumEdges()-16 {
		t.Fatalf("FreeEdges = %d", s.FreeEdges)
	}
	str := c.String()
	if !strings.Contains(str, "RA30_chip") || !strings.Contains(str, "2 mixers") {
		t.Fatalf("String() = %q", str)
	}
}

func TestDeviceKindString(t *testing.T) {
	for k, want := range map[DeviceKind]string{Mixer: "mixer", Detector: "detector", Heater: "heater", Filter: "filter"} {
		if k.String() != want {
			t.Fatalf("DeviceKind(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if DeviceKind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

func TestDeviceAtPortAt(t *testing.T) {
	c := IVD()
	d, ok := c.DeviceAt(c.Devices[0].Node)
	if !ok || d.Name != "M1" {
		t.Fatalf("DeviceAt = %+v, %v", d, ok)
	}
	if _, ok := c.DeviceAt(c.Ports[0].Node); ok {
		t.Fatal("no device at a port node")
	}
	p, ok := c.PortAt(c.Ports[0].Node)
	if !ok || p.Name != "P0" {
		t.Fatalf("PortAt = %+v, %v", p, ok)
	}
}

// --- builder validation -----------------------------------------------------

func TestBuilderRejectsOffBoundaryPort(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M", xy(1, 1))
	b.AddPort("Pin", xy(2, 2)) // interior
	b.AddPort("P0", xy(0, 1))
	b.AddChannel(xy(0, 1), xy(1, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("interior port must be rejected")
	}
}

func TestBuilderRejectsCollision(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M1", xy(1, 1))
	b.AddDevice(Mixer, "M2", xy(1, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(0, 2))
	b.AddChannel(xy(0, 1), xy(1, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("device collision must be rejected")
	}
}

func TestBuilderRejectsDisconnectedChannels(t *testing.T) {
	b := NewBuilder("bad", 6, 6)
	b.AddDevice(Mixer, "M1", xy(1, 1))
	b.AddDevice(Mixer, "M2", xy(4, 4))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(5, 4))
	b.AddChannel(xy(0, 1), xy(1, 1))
	b.AddChannel(xy(4, 4), xy(5, 4))
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected channel network must be rejected")
	}
}

func TestBuilderRejectsUnconnectedDevice(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M1", xy(1, 1))
	b.AddDevice(Mixer, "M2", xy(3, 3)) // never wired
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(0, 2))
	b.AddChannel(xy(0, 1), xy(1, 1))
	b.AddChannel(xy(0, 2), xy(1, 2), xy(1, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("unwired device must be rejected")
	}
}

func TestBuilderRejectsDoubleOccupiedEdge(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M", xy(1, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(0, 2))
	b.AddChannel(xy(0, 1), xy(1, 1))
	b.AddChannel(xy(0, 1), xy(1, 1)) // same edge again
	b.AddChannel(xy(0, 2), xy(1, 2), xy(1, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("double-occupied edge must be rejected")
	}
}

func TestBuilderRejectsNonAdjacentWalk(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M", xy(1, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(0, 2))
	b.AddChannel(xy(0, 1), xy(2, 1)) // jump of 2
	if _, err := b.Build(); err == nil {
		t.Fatal("non-adjacent walk must be rejected")
	}
}

func TestBuilderRejectsTooFewPorts(t *testing.T) {
	b := NewBuilder("bad", 5, 5)
	b.AddDevice(Mixer, "M", xy(1, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddChannel(xy(0, 1), xy(1, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("single-port chip must be rejected")
	}
}

// --- control layer ----------------------------------------------------------

func chipWithDFT(t *testing.T, n int) *Chip {
	t.Helper()
	c := IVD()
	added := 0
	for e := 0; e < c.Grid.NumEdges() && added < n; e++ {
		if _, ok := c.ValveOnEdge(e); !ok {
			if _, err := c.AddDFTChannel(e); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	return c
}

func TestIndependentControl(t *testing.T) {
	c := chipWithDFT(t, 2)
	ct := IndependentControl(c)
	if ct.NumLines() != c.NumValves() {
		t.Fatalf("lines = %d, want %d", ct.NumLines(), c.NumValves())
	}
	if ct.NumShared() != 0 {
		t.Fatalf("NumShared = %d, want 0", ct.NumShared())
	}
	seen := make(map[int]bool)
	for v := 0; v < c.NumValves(); v++ {
		l := ct.LineOf(v)
		if seen[l] {
			t.Fatalf("valve %d shares line %d under independent control", v, l)
		}
		seen[l] = true
	}
}

func TestSharedControlValidation(t *testing.T) {
	c := chipWithDFT(t, 2)
	if _, err := SharedControl(c, []int{0}); err == nil {
		t.Fatal("wrong partner count must fail")
	}
	if _, err := SharedControl(c, []int{0, 0}); err == nil {
		t.Fatal("duplicate partner must fail")
	}
	if _, err := SharedControl(c, []int{0, 99}); err == nil {
		t.Fatal("out-of-range partner must fail")
	}
	ct, err := SharedControl(c, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if ct.NumLines() != 12 {
		t.Fatalf("lines = %d, want 12 (no new control ports)", ct.NumLines())
	}
	if ct.NumShared() != 2 {
		t.Fatalf("NumShared = %d, want 2", ct.NumShared())
	}
	if ct.LineOf(12) != ct.LineOf(3) || ct.LineOf(13) != ct.LineOf(7) {
		t.Fatalf("DFT valves 12/13 on lines %d/%d, want their partners' lines %d/%d",
			ct.LineOf(12), ct.LineOf(13), ct.LineOf(3), ct.LineOf(7))
	}
}

// dirtyLines returns a line scratch longer than ct needs with every flag
// set, so an ExpandInto that leaves stale flags in it shows.
func dirtyLines(ct *Control) []bool {
	lines := make([]bool, ct.NumLines()+3)
	for i := range lines {
		lines[i] = true
	}
	return lines
}

func TestExpandOpenForcesPartner(t *testing.T) {
	c := chipWithDFT(t, 1)
	ct, err := SharedControl(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]bool, c.NumValves())
	ct.ExpandInto([]int{12}, false, got, dirtyLines(ct)) // open the DFT valve only
	if !got[12] || !got[5] {
		t.Fatalf("opening DFT valve must force partner: got[12]=%v got[5]=%v", got[12], got[5])
	}
	for v := 0; v < c.NumValves(); v++ {
		if v != 12 && v != 5 && got[v] {
			t.Fatalf("valve %d unexpectedly open", v)
		}
	}
}

func TestExpandClosedForcesPartner(t *testing.T) {
	c := chipWithDFT(t, 1)
	ct, err := SharedControl(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	open := make([]bool, c.NumValves())
	ct.ExpandInto([]int{5}, true, open, dirtyLines(ct)) // close the original valve only
	if open[5] || open[12] {
		t.Fatalf("closing valve 5 must also close DFT valve 12: open[5]=%v open[12]=%v", open[5], open[12])
	}
	for v := 0; v < c.NumValves(); v++ {
		if v != 12 && v != 5 && !open[v] {
			t.Fatalf("valve %d unexpectedly closed", v)
		}
	}
}

func TestGridHelpers(t *testing.T) {
	g := grid.New(4, 3)
	if g.NumNodes() != 12 || g.NumEdges() != 4*2+3*3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	c := grid.Coord{X: 2, Y: 1}
	if g.CoordOf(g.NodeAt(c)) != c {
		t.Fatal("NodeAt/CoordOf roundtrip failed")
	}
	if !g.OnBoundary(grid.Coord{X: 0, Y: 1}) || g.OnBoundary(grid.Coord{X: 1, Y: 1}) {
		t.Fatal("OnBoundary wrong")
	}
	if _, ok := g.EdgeBetweenCoords(grid.Coord{X: 0, Y: 0}, grid.Coord{X: 1, Y: 0}); !ok {
		t.Fatal("adjacent edge must exist")
	}
	if _, ok := g.EdgeBetweenCoords(grid.Coord{X: 0, Y: 0}, grid.Coord{X: 2, Y: 0}); ok {
		t.Fatal("non-adjacent nodes must have no edge")
	}
	if _, err := g.PathEdges([]grid.Coord{{X: 0, Y: 0}}); err == nil {
		t.Fatal("single-coordinate walk must fail")
	}
	if grid.Manhattan(grid.Coord{X: 0, Y: 0}, grid.Coord{X: 3, Y: 4}) != 7 {
		t.Fatal("Manhattan distance wrong")
	}
}

func TestPressureReachableBadInput(t *testing.T) {
	c := IVD()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong open-slice length must panic")
		}
	}()
	c.PressureReachable(c.Ports[0].Node, c.Ports[1].Node, make([]bool, 1))
}
